// Benchmark harness for the CRK-HACC reproduction.  It drives the layers only
// through their public entry points and prints one JSON object per line on
// stdout; perfbench/run.py turns those records into the benchmark result.
//
//   hacc_bench mode=measure scenario=paper-benchmark np=16 seed=42
//              seconds=20 threads=4 out=.bench_out
//   hacc_bench mode=trace   scenario=cosmology-box np=32 pm_grid=128 ...
//
// Every key the harness does not own (np, seed, shard.count, z_final, ...)
// goes to run::apply_config, exactly as `hacc_run` reads it.
//
// mode=measure  one untimed warm-up run, then repeats {full run, setup
//               probe} until `seconds` have passed (at least `min_runs`
//               times).  A setup probe is a
//               ScenarioRunner with run.max_steps=0: runner construction, IC
//               generation and the initial force evaluation, nothing else.
//               A full run is a ScenarioRunner driven to z_final.  Nothing is
//               traced.
// mode=trace    one run that drives core::Solver step by step (the runner's
//               loop, rebuilt here so the launch history of every step can
//               be read), with spans recorded around each call into a layer;
//               then replays of single layers on the final state (IC
//               generation, PM solves, a domain build, and for sharded runs
//               one step sharded versus single-domain); then one untraced
//               runner run at the pool size and one at a single thread.  The
//               spans are written as a Chrome trace that
//               tools/trace_report.py reads.
//
// Record kinds: "warmup", "setup", "run", "run1" (single thread), "traced",
// "layers", "end".  Every run record carries what the correctness gate needs: whether
// it threw, whether the final state is finite, whether it reached z_final,
// how many checkpoints it wrote and how many of them validate, the final
// kinetic and thermal energies, and the halo count of the last output.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "domain/domain.hpp"
#include "gravity/pm.hpp"
#include "halo/fof.hpp"
#include "ic/power_spectrum.hpp"
#include "ic/zeldovich.hpp"
#include "run/scenario.hpp"
#include "run/step_controller.hpp"
#include "util/config.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#ifndef HACC_BENCH_BUILD_TYPE
#define HACC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HACC_BENCH_COMPILER
#define HACC_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace hacc;

// The kernel names the queue records, in chain order.
constexpr const char* kKernels[] = {"upGeo",   "upCor",   "upBarEx",
                                    "upBarAc", "upBarAcF", "upBarDu",
                                    "upBarDuF", "grav_pp"};

// ---------------------------------------------------------------------------
// JSON output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// An ordered JSON object under construction.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += json_string(key) + ':' + json;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  Obj& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  Obj& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  Obj& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string json() const { return '{' + body_ + '}'; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += json_number(v[i]);
  }
  return out + ']';
}

void emit(const Obj& o) {
  std::fputs(o.json().c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, run id — kept in memory, written at the
// end in the Chrome trace_event format.

class SpanLog {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    int run = 0;
  };

  // Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  void set_run(int id) { run_ = id; }

  double total(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += sp.t1 - sp.t0;
    }
    return s;
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    std::fputs(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"ph\":\"M\","
        "\"name\":\"thread_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":"
        "\"bench\"}}",
        f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      const std::string layer = sp.name.substr(0, sp.name.find('.'));
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":%s,\"cat\":%s,\"pid\":1,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"run\":%d}}",
                   json_string(sp.name).c_str(), json_string(layer).c_str(),
                   (sp.t0 - origin) * 1e6, (sp.t1 - sp.t0) * 1e6, i, sp.parent,
                   sp.run);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  int open(const char* name) {
    Span sp;
    sp.name = name;
    sp.parent = stack_.empty() ? -1 : stack_.back();
    sp.run = run_;
    sp.t0 = util::wtime();
    spans_.push_back(std::move(sp));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[index].t1 = util::wtime();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

// ---------------------------------------------------------------------------
// Run records and the facts the correctness gate checks

bool finite_state(const core::ParticleSet& p) {
  for (const auto* v : {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.mass, &p.h,
                        &p.V, &p.u}) {
    for (const float f : *v) {
      if (!std::isfinite(f)) return false;
    }
  }
  return true;
}

struct RunRecord {
  std::string error;  // empty unless the run threw
  double seconds = 0.0;  // setup probe: set-up wall; run: time to solution
  std::vector<double> step_s;
  int steps = 0;
  bool reached = false;
  bool finite = false;
  double final_z = 0.0;
  double ke = 0.0;
  double u = 0.0;
  long long halos = -1;  // halo count of the last output; -1: no output
  int ckpt_written = 0;
  int ckpt_valid = 0;
  std::size_t particles = 0;
};

// Final-state facts shared by every kind of run.
void inspect(const core::Solver& solver, double a_final, bool hit_max,
             RunRecord& rec) {
  const auto d = solver.diagnostics();
  rec.ke = d.kinetic_energy;
  rec.u = d.thermal_energy;
  rec.final_z = solver.redshift();
  rec.finite = finite_state(solver.dm()) && finite_state(solver.gas()) &&
               std::isfinite(rec.ke) && std::isfinite(rec.u);
  rec.reached = !hit_max && solver.scale_factor() >= a_final * (1.0 - 1e-9);
  rec.particles = solver.dm().size() + solver.gas().size();
}

Obj record_json(const char* kind, const RunRecord& r) {
  Obj o;
  o.str("kind", kind)
      .str("error", r.error)
      .num("seconds", r.seconds)
      .raw("step_s", json_array(r.step_s))
      .integer("steps", r.steps)
      .flag("reached", r.reached)
      .flag("finite", r.finite)
      .num("final_z", r.final_z)
      .num("ke", r.ke)
      .num("u", r.u)
      .integer("halos", r.halos)
      .integer("ckpt_written", r.ckpt_written)
      .integer("ckpt_valid", r.ckpt_valid)
      .integer("particles", static_cast<long long>(r.particles));
  return o;
}

// Validates and then removes every checkpoint a run left behind.
void settle_checkpoints(const std::vector<std::string>& files, RunRecord& rec) {
  for (const std::string& path : files) {
    ++rec.ckpt_written;
    if (core::validate_run_checkpoint(path).ok()) ++rec.ckpt_valid;
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

// Runner construction -> IC generation -> initial force evaluation, and no
// step: the set-up a user waits for before the first step starts.
RunRecord setup_probe(run::Scenario s, util::ThreadPool& pool) {
  s.run.max_steps = 0;
  s.run.checkpoint_path.clear();
  RunRecord rec;
  try {
    const double t0 = util::wtime();
    run::ScenarioRunner runner(s.sim, s.run, pool);
    runner.run();
    rec.seconds = util::wtime() - t0;
    inspect(runner.solver(), 0.0, false, rec);
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  return rec;
}

// One untraced ScenarioRunner run to z_final.
RunRecord full_run(const run::Scenario& s, util::ThreadPool& pool) {
  RunRecord rec;
  try {
    const double t0 = util::wtime();
    run::ScenarioRunner runner(s.sim, s.run, pool);
    const run::RunResult r = runner.run();
    rec.seconds = util::wtime() - t0;
    for (const auto& st : r.history) rec.step_s.push_back(st.wall_seconds);
    rec.steps = r.steps;
    if (!r.outputs.empty()) rec.halos = r.outputs.back().n_halos;
    inspect(runner.solver(),
            run::StepController(s.sim, s.run.stepping).a_final(),
            r.hit_max_steps, rec);
    settle_checkpoints(r.checkpoint_files, rec);
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  return rec;
}

// ---------------------------------------------------------------------------
// The traced run

struct KernelTotals {
  double seconds = 0.0;
  std::uint64_t interactions = 0;
  std::uint64_t words = 0;
};

// Global loads + global stores + sub-group exchange words (select, 32-bit
// local, object-local bytes / 4, butterfly).
std::uint64_t words_moved(const xsycl::OpCounters& o) {
  return o.global_loads + o.global_stores + o.select_words + o.local32_words +
         o.localobj_bytes / 4 + o.butterfly_words;
}

void harvest(xsycl::Queue& q, std::map<std::string, KernelTotals>& kernels) {
  for (const auto& s : q.history()) {
    KernelTotals& k = kernels[s.kernel];
    k.seconds += s.seconds;
    k.interactions += s.ops.interactions;
    k.words += words_moved(s.ops);
  }
  q.clear_history();
}

std::uint64_t sph_interactions(xsycl::Queue& q) {
  std::map<std::string, KernelTotals> kernels;
  harvest(q, kernels);
  std::uint64_t n = 0;
  for (const auto& [name, k] : kernels) {
    if (name != "grav_pp") n += k.interactions;
  }
  return n;
}

std::vector<util::Vec3d> combined_positions(const core::Solver& s) {
  std::vector<util::Vec3d> pos = s.dm().positions();
  const std::vector<util::Vec3d> gas = s.gas().positions();
  pos.insert(pos.end(), gas.begin(), gas.end());
  return pos;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Traced {
  RunRecord rec;
  std::map<std::string, double> metrics;
};

Traced traced_run(const run::Scenario& s, util::ThreadPool& pool,
                  SpanLog& log) {
  Traced out;
  RunRecord& rec = out.rec;
  auto& m = out.metrics;
  std::map<std::string, KernelTotals> kernels;
  const core::SimConfig& sim = s.sim;
  const run::RunOptions& opt = s.run;
  const bool adaptive = opt.stepping.mode == run::StepMode::kAdaptive;

  std::unique_ptr<core::Solver> solver;
  try {
    log.set_run(1);
    SpanLog::Scope run_span(log, "run.run");
    const double t0 = util::wtime();
    const run::StepController controller(sim, opt.stepping);
    double vmax = 0.0, amax = 0.0;
    {
      SpanLog::Scope sp(log, "run.setup");
      solver = std::make_unique<core::Solver>(sim, pool);
      {
        SpanLog::Scope c(log, "core.initialize");
        solver->initialize();
      }
      if (adaptive) {
        SpanLog::Scope c(log, "core.prepare_forces");
        solver->prepare_forces();
        vmax = solver->max_velocity();
        amax = solver->max_acceleration();
      }
    }
    harvest(solver->queue(), kernels);

    std::vector<double> outputs_a;
    for (const double z : opt.outputs_z) {
      if (z >= 0.0) outputs_a.push_back(ic::Cosmology::a_of_z(z));
    }
    std::sort(outputs_a.begin(), outputs_a.end());
    std::size_t next_output = 0;
    int last_ckpt = -1;
    bool hit_max = false;
    double ckpt_bytes = 0.0;

    const auto checkpoint = [&](int step) {
      const std::string path = opt.checkpoint_path + ".step" + std::to_string(step);
      core::RunCheckpointMeta meta;
      meta.box = sim.box;
      meta.scale_factor = solver->scale_factor();
      meta.step = static_cast<std::uint64_t>(step);
      meta.config_hash = core::config_signature(sim);
      core::CkptResult wr;
      {
        SpanLog::Scope c(log, "io.ckpt_write");
        wr = core::write_run_checkpoint(path, solver->dm(), solver->gas(), meta);
      }
      ++rec.ckpt_written;
      if (!wr.ok()) return;
      bool valid = false;
      {
        SpanLog::Scope c(log, "io.ckpt_validate");
        valid = core::validate_run_checkpoint(path).ok();
      }
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (!ec) ckpt_bytes += static_cast<double>(size);
      if (valid) ++rec.ckpt_valid;
      std::filesystem::remove(path, ec);
    };

    double pm_s = 0.0, short_s = 0.0, overlap_s = 0.0, tree_s = 0.0;
    long long builds = 0, reuses = 0;
    while (!controller.done(solver->scale_factor(), solver->steps_taken())) {
      if (rec.steps >= opt.max_steps) {
        hit_max = true;
        break;
      }
      if (adaptive) {
        SpanLog::Scope c(log, "run.next_da");
        solver->set_time_step(controller.next_da(
            solver->scale_factor(), solver->time_step(), vmax, amax));
      }
      core::StepStats st;
      {
        SpanLog::Scope c(log, "core.step");
        st = solver->step();
      }
      ++rec.steps;
      rec.step_s.push_back(st.wall_seconds);
      vmax = st.max_velocity;
      amax = st.max_acceleration;
      pm_s += st.pm_seconds;
      short_s += st.short_range_seconds;
      overlap_s += st.overlap_seconds;
      tree_s += st.tree_seconds;
      builds += st.tree_builds;
      reuses += st.tree_reuses;
      harvest(solver->queue(), kernels);

      while (next_output < outputs_a.size() &&
             solver->scale_factor() >= outputs_a[next_output]) {
        SpanLog::Scope c(log, "halo.fof");
        halo::FofOptions fof;
        fof.linking_length = opt.fof_b * sim.box / sim.np_side;
        fof.min_members = opt.fof_min_members;
        rec.halos =
            halo::friends_of_friends(solver->dm().positions(), sim.box, fof)
                .n_halos();
        ++next_output;
      }
      if (!opt.checkpoint_path.empty() && opt.checkpoint_every > 0 &&
          solver->steps_taken() % opt.checkpoint_every == 0) {
        checkpoint(st.step);
        last_ckpt = st.step;
      }
    }
    if (!opt.checkpoint_path.empty() && opt.checkpoint_final &&
        last_ckpt != solver->steps_taken()) {
      checkpoint(solver->steps_taken());
    }
    rec.seconds = util::wtime() - t0;
    inspect(*solver, controller.a_final(), hit_max, rec);

    m["sched.pm_s"] = pm_s;
    m["sched.short_s"] = short_s;
    m["sched.overlap_s"] = overlap_s;
    m["domain.build_s"] = tree_s;
    m["domain.builds"] = static_cast<double>(builds);
    m["domain.reuses"] = static_cast<double>(reuses);
    m["ckpt.bytes"] = ckpt_bytes;
    m["run.steps"] = rec.steps;
  } catch (const std::exception& e) {
    rec.error = e.what();
    return out;
  }
  m["ckpt.write_s"] = log.total("io.ckpt_write");
  m["ckpt.validate_s"] = log.total("io.ckpt_validate");
  m["halo.fof_s"] = log.total("halo.fof");
  m["halo.count"] = static_cast<double>(std::max(rec.halos, 0LL));

  for (const char* name : kKernels) {
    const KernelTotals& k = kernels[name];
    const std::string p = std::string("xsycl.") + name;
    m[p + ".s"] = k.seconds;
    m[p + ".interactions"] = static_cast<double>(k.interactions);
    m[p + ".interactions_per_s"] =
        k.seconds > 0.0 ? static_cast<double>(k.interactions) / k.seconds : 0.0;
    m[p + ".words"] = static_cast<double>(k.words);
  }

  // Sharding: cumulative engine counters over the whole run.
  const shard::ShardEngine* eng = solver->shard_engine();
  const std::size_t residents = solver->dm().size() + solver->gas().size();
  double ghost_slots = 0.0;
  if (eng != nullptr) {
    for (int i = 0; i < eng->options().count; ++i) {
      const auto v = eng->shard_view(i);
      ghost_slots += static_cast<double>(v.gho_dm.size() + v.gho_gas.size());
    }
  }
  const shard::EngineStats es = eng ? eng->stats() : shard::EngineStats{};
  const shard::TransportStats ts = eng ? eng->transport_stats() : shard::TransportStats{};
  m["shard.migrate_s"] = es.migrate_seconds;
  m["shard.exchange_s"] = es.exchange_seconds;
  m["shard.sph_s"] = es.sph_seconds;
  m["shard.pp_s"] = es.pp_seconds;
  m["shard.ghosts"] = static_cast<double>(es.ghost_copies);
  m["shard.migrated"] = static_cast<double>(es.migrated);
  m["shard.messages"] = static_cast<double>(ts.messages);
  m["shard.bytes"] = static_cast<double>(ts.bytes);
  m["shard.halo_ratio"] = residents ? ghost_slots / residents : 0.0;

  // ---- Replays of single layers on the final state ----
  log.set_run(2);
  const double a = solver->scale_factor();
  {
    // IC generation exactly as Solver::initialize performs it.
    SpanLog::Scope sp(log, "ic.generate");
    const ic::PowerSpectrum pk(sim.cosmo, sim.sigma_norm, sim.r_norm);
    ic::ZeldovichOptions z;
    z.np_side = sim.np_side;
    z.box = sim.box;
    z.a_init = ic::Cosmology::a_of_z(sim.z_init);
    z.seed = sim.seed;
    const ic::ZeldovichGenerator gen(sim.cosmo, pk, z, pool);
    gen.generate(0.0);
    if (sim.hydro) gen.generate(0.5);
  }
  m["ic.generate_s"] = log.total("ic.generate");

  const std::vector<util::Vec3d> pos = combined_positions(*solver);
  const double r_split = sim.r_split_cells * sim.box / sim.pm_grid;
  {
    // The long-range solve on the final positions: one warm-up, then the
    // median phase times of three.
    std::vector<double> mass;
    for (const auto* p : {&solver->dm(), &solver->gas()}) {
      mass.insert(mass.end(), p->mass.begin(), p->mass.end());
    }
    gravity::PmOptions po;
    po.grid_n = sim.pm_grid;
    po.box = sim.box;
    po.r_split = r_split;
    po.G = 3.0 * sim.cosmo.omega_m / (8.0 * M_PI * a);
    po.gradient = sim.pm_gradient;
    gravity::PmSolver pm(po, pool);
    std::vector<util::Vec3d> accel(pos.size());
    std::map<std::string, std::vector<double>> phase;
    for (int i = 0; i < 4; ++i) {
      SpanLog::Scope sp(log, "gravity.pm_solve");
      pm.compute_forces(pos, mass, accel);
      if (i == 0) continue;
      const gravity::PmPhaseTimes& t = pm.phase_times();
      phase["solve"].push_back(t.total());
      phase["deposit"].push_back(t.deposit);
      phase["forward"].push_back(t.forward);
      phase["green"].push_back(t.green);
      phase["inverse"].push_back(t.inverse);
      phase["interp"].push_back(t.interp);
    }
    for (const auto& [name, v] : phase) m["pm." + name + "_s"] = median(v);
    // Computed per solve: a spectral gradient inverts three force spectra
    // plus the potential; fd4/fd6 invert the potential alone.  Bytes are the
    // buffers one solve writes: the mass, potential and three force grids
    // (doubles) and the half spectra (complex doubles).
    const bool spectral = sim.pm_gradient == gravity::PmGradient::kSpectral;
    const double n = sim.pm_grid;
    const double half = n * n * (n / 2 + 1) * 16.0;
    m["pm.c2r_per_solve"] = spectral ? 4.0 : 1.0;
    m["pm.bytes"] = 5.0 * n * n * n * 8.0 + half * (spectral ? 4.0 : 1.0);
  }
  {
    // One shared-domain build over the final combined gather, and its leaf
    // pairs at the short-range cutoff.
    domain::DomainOptions d;
    d.box = sim.box;
    d.leaf_size = sim.leaf_size;
    d.pool = &pool;
    domain::InteractionDomain dom(d);
    {
      SpanLog::Scope sp(log, "domain.update");
      dom.update(pos, solver->dm().size());
    }
    std::uint64_t pairs = 0;
    {
      SpanLog::Scope sp(log, "domain.pairs");
      dom.for_each_pair(sim.pp_cut_factor * r_split,
                        [&pairs](const tree::LeafPair&) { ++pairs; });
    }
    m["domain.leaf_pairs"] = static_cast<double>(pairs);
  }
  m["shard.interaction_overhead"] = 0.0;
  if (eng != nullptr && sim.hydro) {
    // One step from the final state, sharded and single-domain: SPH
    // interactions attempted over useful ones.  The first evaluation after
    // restore() reuses the checkpointed hydro outputs, so each step's
    // history holds exactly one SPH chain (the corrector's).
    SpanLog::Scope sp(log, "shard.overhead_replay");
    std::uint64_t n[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      core::SimConfig c = sim;
      if (i == 1) c.shard_count = 1;
      core::Solver replay(c, pool);
      replay.restore(solver->dm(), solver->gas(), a, solver->steps_taken());
      SpanLog::Scope st(log, "core.step");
      replay.step();
      n[i] = sph_interactions(replay.queue());
    }
    m["shard.interaction_overhead"] =
        n[1] ? static_cast<double>(n[0]) / static_cast<double>(n[1]) : 0.0;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int usage(const std::string& msg) {
  std::fprintf(stderr, "hacc_bench: %s\n", msg.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::Config cfg;
  cfg.apply_overrides(argc - 1, argv + 1);
  const std::string mode = cfg.get_string("mode", "measure");
  const std::string out_dir = cfg.get_string("out", ".bench_out");
  const std::string tag = cfg.get_string("tag", "bench");
  double seconds = 0.0;
  long min_runs = 0, threads = 0;
  run::Scenario s;
  try {
    seconds = cfg.get_double("seconds", 10.0);
    min_runs = cfg.get_int("min_runs", 3);
    threads = cfg.get_int("threads", 0);
    const std::string name = cfg.get_string("scenario", "paper-benchmark");
    if (!run::find_scenario(name, s)) return usage("unknown scenario " + name);
    std::string error;
    if (!run::apply_config(cfg, s.sim, s.run, error)) return usage(error);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (mode != "measure" && mode != "trace") return usage("unknown mode " + mode);
  if (threads <= 0) threads = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  s.run.log_path.clear();
  s.run.echo_steps = false;
  if (!s.run.checkpoint_path.empty()) {
    s.run.checkpoint_path =
        out_dir + "/" + tag + "-" + std::to_string(getpid()) + ".ckpt";
  }

  util::ThreadPool pool(static_cast<unsigned>(threads));
  // Peak resident memory of the process when its first full run ends, so
  // the figure does not depend on how many runs fit into `seconds`.
  double run_peak_mb = 0.0;
  if (mode == "measure") {
    // The warm-up pays the pool's start, the allocator's growth and the
    // first touches of the PM grids before the window opens: a process's
    // first gravity-box run is often ~20% slower than its next.
    emit(record_json("warmup", full_run(s, pool)));
    run_peak_mb = peak_rss_mb();
    const double t0 = util::wtime();
    for (long rep = 0;; ++rep) {
      emit(record_json("run", full_run(s, pool)));
      emit(record_json("setup", setup_probe(s, pool)));
      if (rep + 1 >= min_runs && util::wtime() - t0 >= seconds) break;
    }
  } else {
    // The set-up probe warms the pool and the allocator, so neither the
    // traced run nor the untraced one pays the process's first touches.
    emit(record_json("setup", setup_probe(s, pool)));
    SpanLog log;
    const Traced t = traced_run(s, pool, log);
    emit(record_json("traced", t.rec));
    const RunRecord plain = full_run(s, pool);
    emit(record_json("run", plain));
    util::ThreadPool one(1);
    const RunRecord single = full_run(s, one);
    emit(record_json("run1", single));

    const auto step_sum = [](const RunRecord& r) {
      double sum = 0.0;
      for (const double x : r.step_s) sum += x;
      return sum;
    };
    Obj metrics;
    for (const auto& [name, v] : t.metrics) metrics.num(name, v);
    metrics.num("sched.speedup_1to4",
                step_sum(plain) > 0.0 ? step_sum(single) / step_sum(plain) : 0.0);
    metrics.num("trace.overhead",
                plain.seconds > 0.0 ? t.rec.seconds / plain.seconds - 1.0 : 0.0);
    const std::string trace_path = out_dir + "/trace-" + tag + ".json";
    if (!log.write_chrome(trace_path)) return usage("cannot write " + trace_path);
    Obj layers;
    layers.str("kind", "layers").str("trace", trace_path).raw("metrics", metrics.json());
    emit(layers);
  }

  Obj end;
  end.str("kind", "end")
      .num("peak_rss_mb", run_peak_mb > 0.0 ? run_peak_mb : peak_rss_mb())
      .integer("threads", static_cast<long long>(pool.size()))
      .integer("hardware_concurrency",
               static_cast<long long>(std::thread::hardware_concurrency()))
      .str("build_type", HACC_BENCH_BUILD_TYPE)
      .str("compiler", HACC_BENCH_COMPILER);
  emit(end);
  return 0;
}
