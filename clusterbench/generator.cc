// clusterbench_gen: the load generator of the cluster benchmark. It spawns a
// loopback cluster of lazysi_server processes, drives one workload through
// the public client stubs (RemoteSite / RemoteSession), checks the outputs,
// and prints one JSON object with every metric it measured. run.py builds
// it, runs it and formats the result; see README.md for the workloads and
// the metric -> layer -> workload map.
//
//   clusterbench_gen --server=PATH --workdir=DIR
//                    --workload=shopping|durable-writes|rejoin --seed=N
//                    --seconds=S [--trace=0|1] [--spans=FILE] [--rate=R]
//                    [--primary-flag=F]...
//
// Layers are measured from outside the servers only: by timing each client
// call (traced runs only), from deltas of the sites' kOpStats counters, and
// from /proc/<pid> of every site process.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "system/remote_client.h"

extern char** environ;

namespace {

using lazysi::Rng;
using lazysi::Status;
using lazysi::Timestamp;
using lazysi::system::RemoteSession;
using lazysi::system::RemoteSite;
using Clock = std::chrono::steady_clock;
using SiteStats = RemoteSite::SiteStats;

// TPC-W transaction shape (Table 1, simmodel::Params).
constexpr int kMinOps = 5;
constexpr int kMaxOps = 15;
constexpr double kUpdateTxnProb = 0.20;
constexpr double kPutProb = 0.30;
constexpr std::size_t kValueBytes = 100;

// shopping / durable-writes: uniform keys over a preloaded table. The
// durable table is smaller so that its 1 s checkpoints stall commits for
// milliseconds, not for most of a second.
constexpr std::uint64_t kShoppingKeys = 100000;
constexpr std::uint64_t kDurableKeys = 10000;
constexpr std::uint64_t kPreloadPutsPerTxn = 200;
constexpr int kSessions = 2;  // shopping: closed-loop sessions
constexpr int kWriters = 3;   // durable-writes: open-loop writer connections
// durable-writes arrivals/s, fixed so that results stay comparable: two
// thirds of the lowest closed-loop (--rate=0) commit rate of kWriters writers
// measured on a shared 4-vCPU VM, 490/s at 28% steal time. Quiet, the same
// loop commits 2000-2170/s, but two thirds of that (1400/s) fell behind by up
// to seconds at 5-12% steal, and 700/s at 17%. RESULTS.md records the runs.
constexpr double kDurableRate = 330;

// rejoin: a backlog of small skewed update commits.
constexpr std::uint64_t kBacklogCommits = 30000;
constexpr int kBacklogPuts = 3;
constexpr std::uint64_t kBacklogKeys = 20000;
constexpr double kZipfExponent = 0.99;

constexpr int kMaxLoaders = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// generator.cpu_share above this means the generator, not the cluster, set
// the pace.
constexpr double kSaturatedShare = 0.9;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------------------
// Child processes and fatal exits.

std::mutex g_children_mu;
std::vector<pid_t> g_children;

void KillChildren() {
  std::lock_guard<std::mutex> lock(g_children_mu);
  for (pid_t pid : g_children) ::kill(pid, SIGKILL);
  for (pid_t pid : g_children) ::waitpid(pid, nullptr, 0);
  g_children.clear();
}

[[noreturn]] void Fatal(const std::string& msg) {
  std::fprintf(stderr, "clusterbench_gen: fatal: %s\n", msg.c_str());
  std::fflush(stderr);
  KillChildren();
  std::_Exit(1);
}

int NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

// ---------------------------------------------------------------------------
// Generator self-accounting: every thread and connection goes through these.

std::atomic<int> g_threads{1};
std::atomic<int> g_peak_threads{1};
std::atomic<int> g_conns{0};
std::atomic<int> g_peak_conns{0};

void RaisePeak(std::atomic<int>* peak, int value) {
  int cur = peak->load();
  while (value > cur && !peak->compare_exchange_weak(cur, value)) {
  }
}

/// Runs fn(0..n-1) concurrently, fn(0) on the calling thread.
void RunParallel(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int i = 1; i < n; ++i) {
    RaisePeak(&g_peak_threads, ++g_threads);
    threads.emplace_back([&fn, i] { fn(i); });
  }
  fn(0);
  for (auto& t : threads) t.join();
  g_threads -= n - 1;
}

/// One client connection to a site's client port.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    const Status s = site_.Connect("127.0.0.1", port);
    if (!s.ok()) Fatal("connect to port " + std::to_string(port) + ": " +
                       s.ToString());
    RaisePeak(&g_peak_conns, ++g_conns);
  }
  ~Conn() {
    site_.Disconnect();
    --g_conns;
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  RemoteSite* operator->() { return &site_; }
  RemoteSite& operator*() { return site_; }

 private:
  RemoteSite site_;
};

// ---------------------------------------------------------------------------
// /proc/<pid> of a site process (or of the generator itself).

struct Proc {
  double cpu_ms = 0;
  double hwm_mb = 0;
  double threads = 0;
  double write_bytes = 0;  // bytes sent to the storage layer
  double syscw = 0;        // write-family syscalls (not sendmsg)
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double Field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

Proc ReadProc(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/";
  Proc p;
  const std::string stat = ReadFile(dir + "stat");
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) Fatal("cannot read " + dir + "stat");
  std::istringstream fields(stat.substr(paren + 2));
  std::vector<std::string> tok;
  for (std::string t; fields >> t;) tok.push_back(t);
  // Fields 14 and 15 of stat (utime, stime) are tokens 11 and 12 after ')'.
  if (tok.size() < 13) Fatal("short " + dir + "stat");
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  p.cpu_ms = (std::stod(tok[11]) + std::stod(tok[12])) * 1000.0 / ticks;
  const std::string status = ReadFile(dir + "status");
  p.hwm_mb = Field(status, "VmHWM:") / 1024.0;
  p.threads = Field(status, "Threads:");
  const std::string io = ReadFile(dir + "io");
  p.write_bytes = Field(io, "\nwrite_bytes:");
  p.syscw = Field(io, "syscw:");
  return p;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent; spans of one transaction share its id.

struct Span {
  const char* name;
  std::uint64_t trace;
  std::uint64_t id;
  std::uint64_t parent;
  Clock::time_point start;
  Clock::time_point end;
};

/// With tracing enabled, a lane's tracer keeps spans for every other unit of
/// work (transaction, probe or rejoin): the untraced units in between run
/// under the same load, so comparing the two measures what tracing costs.
class Tracer {
 public:
  Tracer(bool enabled, int lane)
      : enabled_(enabled), on_(enabled), lane_(lane) {}

  /// Starts the next unit of work: traced if it is an even one.
  void NextUnit() { on_ = enabled_ && units_++ % 2 == 0; }
  bool on() const { return on_; }

  std::uint64_t NewId() {
    return (static_cast<std::uint64_t>(lane_ + 1) << 40) | ++next_;
  }
  void Add(const char* name, std::uint64_t trace, std::uint64_t id,
           std::uint64_t parent, Clock::time_point start,
           Clock::time_point end) {
    if (on_) spans_.push_back({name, trace, id, parent, start, end});
  }
  /// Runs one client call; with tracing on, records it as a child span.
  template <class F>
  auto Call(const char* name, std::uint64_t trace, F&& f) -> decltype(f()) {
    ++calls_;
    if (!on_) return f();
    const auto start = Clock::now();
    auto result = f();
    Add(name, trace, NewId(), trace, start, Clock::now());
    return result;
  }
  std::uint64_t calls() const { return calls_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  bool on_;
  int lane_;
  std::uint64_t units_ = 0;
  std::uint64_t next_ = 0;
  std::uint64_t calls_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs: keys, values and key distributions, all drawn from the seed.

std::string Key(std::uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%07llu",
                static_cast<unsigned long long>(i));
  return buf;
}

class ValuePool {
 public:
  explicit ValuePool(std::uint64_t seed) {
    Rng rng(seed);
    values_.resize(256);
    for (auto& v : values_) {
      v.resize(kValueBytes);
      for (auto& c : v) c = static_cast<char>('a' + rng.Next(26));
    }
  }
  const std::string& Pick(Rng* rng) const {
    return values_[rng->Next(values_.size())];
  }

 private:
  std::vector<std::string> values_;
};

class Zipf {
 public:
  Zipf(std::uint64_t n, double exponent) : cdf_(n) {
    double sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  std::uint64_t Next(Rng* rng) const {
    const double u = rng->Uniform(0, 1);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::uint64_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Sites and clusters.

struct Args {
  std::string server;
  std::string workdir;
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = kDurableRate;
  std::vector<std::string> primary_flags;
};

struct Site {
  pid_t pid = -1;
  std::uint16_t client_port = 0;
  std::uint16_t repl_port = 0;
};

/// Starts one lazysi_server and returns once it has written its ports.
Site Spawn(const Args& args, const std::string& name,
           const std::vector<std::string>& flags) {
  const std::string port_file = args.workdir + "/" + name + ".ports";
  const std::string log_file = args.workdir + "/" + name + ".log";
  ::unlink(port_file.c_str());
  std::vector<std::string> argv_s = {args.server};
  argv_s.insert(argv_s.end(), flags.begin(), flags.end());
  argv_s.push_back("--port-file=" + port_file);
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  Site site;
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    const int rc = ::posix_spawn(&site.pid, args.server.c_str(), &actions,
                                 nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) Fatal("spawn " + args.server + ": " + std::strerror(rc));
    g_children.push_back(site.pid);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  for (;;) {
    unsigned client = 0;
    unsigned repl = 0;
    if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
      const int got = std::fscanf(f, "%u %u", &client, &repl);
      std::fclose(f);
      if (got == 2) {
        site.client_port = static_cast<std::uint16_t>(client);
        site.repl_port = static_cast<std::uint16_t>(repl);
        return site;
      }
    }
    int status = 0;
    if (::waitpid(site.pid, &status, WNOHANG) == site.pid) {
      Fatal(name + " exited during start; see " + log_file);
    }
    if (Clock::now() > deadline) Fatal(name + " did not come up");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void Stop(Site* site, int sig) {
  if (site->pid < 0) return;
  ::kill(site->pid, sig);
  int status = 0;
  ::waitpid(site->pid, &status, 0);
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    g_children.erase(
        std::remove(g_children.begin(), g_children.end(), site->pid),
        g_children.end());
  }
  site->pid = -1;
}

struct Cluster {
  Site primary;
  std::vector<Site> secondaries;
  std::vector<Site*> sites() {
    std::vector<Site*> out = {&primary};
    for (auto& s : secondaries) out.push_back(&s);
    return out;
  }
};

void Teardown(Cluster* c) {
  for (Site* s : c->sites()) Stop(s, SIGTERM);
}

SiteStats StatsOf(const Site& site) {
  Conn conn(site.client_port);
  auto stats = conn->Stats();
  if (!stats.ok()) Fatal("stats: " + stats.status().ToString());
  return *stats;
}

/// Blocks until the site has applied `seq`; the server bounds one wait by
/// its read-block timeout, so a long catch-up takes several.
void WaitApplied(RemoteSite* site, Timestamp seq) {
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  for (;;) {
    const Status s = site->WaitSeq(seq);
    if (s.ok()) return;
    if (!s.IsTimedOut() || Clock::now() > deadline) {
      Fatal("wait for seq " + std::to_string(seq) + ": " + s.ToString());
    }
  }
}

// ---------------------------------------------------------------------------
// Results of one measured phase.

struct Lane {
  explicit Lane(bool trace, int lane) : tracer(trace, lane) {}
  /// Records a finished unit of work (a committed transaction or a rejoin)
  /// under whether it ran traced.
  void Done(double ms) {
    (tracer.on() ? traced_ms : untraced_ms).push_back(ms);
  }
  Tracer tracer;
  std::vector<double> update_ms, ro_ms, txn_ms, lag_ms, late_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> rejoin_ms, spawn_ms, attach_ms, replay_s;
  std::uint64_t update_attempts = 0, update_commits = 0, ro_commits = 0;
  std::uint64_t aborts = 0, errors = 0, prefix_violations = 0;
  std::uint64_t user_bytes = 0;  // key+value bytes of committed puts
  std::uint64_t rejoins = 0, rejoin_hash_mismatches = 0;
  std::uint64_t rejoin_reconnects = 0;
  double rejoin_cpu_ms = 0, rejoin_hwm_mb = 0;
};

struct Snapshot {
  std::vector<Proc> procs;  // primary first
  std::vector<SiteStats> stats;
  Proc self;
};

Snapshot Take(Cluster* c) {
  Snapshot s;
  for (Site* site : c->sites()) {
    s.stats.push_back(StatsOf(*site));
    s.procs.push_back(ReadProc(site->pid));
  }
  s.self = ReadProc(::getpid());
  return s;
}

struct Phase {
  std::vector<Lane> lanes;
  Snapshot before, after;
  Clock::time_point start;  // lanes connected; the measured window opens
  double seconds = 0;       // start -> last lane done
  int threads = 0;  // generator threads that drove the phase
};

// ---------------------------------------------------------------------------
// Transactions.

enum class Outcome { kCommitted, kAborted, kError };

/// A first-committer-wins abort: the expected outcome of a conflict, not an
/// error.
bool IsFcwAbort(const Status& s) {
  return s.IsWriteConflict() || s.IsAborted();
}

/// Classifies one call's status; false stops the transaction.
bool Continue(const Status& s, Outcome* out) {
  if (s.ok()) return true;
  *out = IsFcwAbort(s) ? Outcome::kAborted : Outcome::kError;
  static std::atomic<int> reported{0};
  if (*out == Outcome::kError && reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "clusterbench_gen: call failed: %s\n",
                 s.ToString().c_str());
  }
  return false;
}

struct TxnInput {
  const ValuePool* values;
  std::uint64_t keys;
};

/// One TPC-W update transaction at the primary. On commit, *seq is its
/// commit timestamp (the session's new seq(c)).
Outcome RunUpdate(RemoteSite* pri, RemoteSession* session,
                  const TxnInput& in, Rng* rng, Lane* lane,
                  std::uint64_t trace, Timestamp* seq) {
  Tracer& tr = lane->tracer;
  Outcome out = Outcome::kCommitted;
  ++lane->update_attempts;
  if (!Continue(tr.Call("pri.begin", trace,
                        [&] { return session->Begin(pri, false).status(); }),
                &out)) {
    ++lane->errors;
    return out;
  }
  std::uint64_t bytes = 0;
  const int ops = static_cast<int>(rng->UniformInt(kMinOps, kMaxOps));
  for (int i = 0; i < ops; ++i) {
    const std::string key = Key(rng->Next(in.keys));
    Status s;
    if (rng->Bernoulli(kPutProb)) {
      const std::string& value = in.values->Pick(rng);
      s = tr.Call("pri.put", trace, [&] { return pri->Put(key, value); });
      bytes += key.size() + value.size();
    } else {
      s = tr.Call("pri.get", trace,
                  [&] { return pri->Get(key).status(); });
    }
    if (!Continue(s, &out)) {
      tr.Call("pri.abort", trace, [&] { return pri->Abort(); });
      break;
    }
  }
  if (out == Outcome::kCommitted) {
    auto committed = tr.Call("pri.commit", trace,
                             [&] { return session->Commit(pri); });
    if (committed.ok()) {
      *seq = *committed;
      ++lane->update_commits;
      lane->user_bytes += bytes;
      return out;
    }
    Continue(committed.status(), &out);
  }
  if (out == Outcome::kAborted) {
    ++lane->aborts;
  } else {
    ++lane->errors;
  }
  return out;
}

/// One TPC-W read-only transaction at a secondary, carrying seq(c). Checks
/// Theorem 4.1 from the client: the snapshot's prefix covers seq(c).
Outcome RunReadOnly(RemoteSite* sec, RemoteSession* session,
                    const TxnInput& in, Rng* rng, Lane* lane,
                    std::uint64_t trace, Clock::time_point* begun) {
  Tracer& tr = lane->tracer;
  Outcome out = Outcome::kCommitted;
  auto prefix = tr.Call("sec.begin", trace,
                        [&] { return session->Begin(sec, true); });
  *begun = Clock::now();
  if (!Continue(prefix.status(), &out)) {
    ++lane->errors;
    return out;
  }
  if (*prefix < session->seq()) ++lane->prefix_violations;
  const int ops = static_cast<int>(rng->UniformInt(kMinOps, kMaxOps));
  for (int i = 0; i < ops && out == Outcome::kCommitted; ++i) {
    const std::string key = Key(rng->Next(in.keys));
    Continue(tr.Call("sec.get", trace,
                     [&] { return sec->Get(key).status(); }),
             &out);
  }
  if (out == Outcome::kCommitted) {
    Continue(tr.Call("sec.commit", trace,
                     [&] { return session->Commit(sec).status(); }),
             &out);
  } else {
    tr.Call("sec.abort", trace, [&] { return sec->Abort(); });
  }
  if (out == Outcome::kCommitted) {
    ++lane->ro_commits;
  } else {
    ++lane->errors;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: cluster spawn, preload, initial catch-up.

std::vector<std::string> PrimaryFlags(const Args& args, int setup) {
  std::vector<std::string> flags = {"--role=primary"};
  if (args.workload == "durable-writes") {
    // scripts/run_cluster.sh's durable defaults.
    flags.push_back("--data-dir=" + args.workdir + "/data" +
                    std::to_string(setup));
    flags.push_back("--fsync-mode=group");
    flags.push_back("--checkpoint-interval-ms=1000");
  }
  flags.insert(flags.end(), args.primary_flags.begin(),
               args.primary_flags.end());
  return flags;
}

Site SpawnSecondary(const Args& args, const Site& primary,
                    const std::string& name, int site_id) {
  std::vector<std::string> flags = {
      "--role=secondary", "--primary-port=" + std::to_string(primary.repl_port),
      "--site-id=" + std::to_string(site_id)};
  return Spawn(args, name, flags);
}

int Loaders() { return std::min(kMaxLoaders, NumCpus()); }

std::uint64_t TableKeys(const Args& args) {
  return args.workload == "shopping" ? kShoppingKeys : kDurableKeys;
}

/// Preloads `keys` keys in large transactions over disjoint ranges.
Timestamp PreloadTable(const Site& primary, std::uint64_t keys,
                       const ValuePool& values, std::uint64_t seed) {
  std::atomic<Timestamp> latest{0};
  const int loaders = Loaders();
  RunParallel(loaders, [&](int w) {
    Conn conn(primary.client_port);
    Rng rng(seed * 7919 + w);
    const std::uint64_t lo = keys * w / loaders;
    const std::uint64_t hi = keys * (w + 1) / loaders;
    for (std::uint64_t k = lo; k < hi; k += kPreloadPutsPerTxn) {
      if (!conn->Begin(false).ok()) Fatal("preload begin");
      for (std::uint64_t i = k; i < std::min(hi, k + kPreloadPutsPerTxn);
           ++i) {
        const Status s = conn->Put(Key(i), values.Pick(&rng));
        if (!s.ok()) Fatal("preload put: " + s.ToString());
      }
      auto seq = conn->Commit();
      if (!seq.ok()) Fatal("preload commit: " + seq.status().ToString());
      Timestamp cur = latest.load();
      while (*seq > cur && !latest.compare_exchange_weak(cur, *seq)) {
      }
    }
  });
  return latest.load();
}

struct Backlog {
  Timestamp first_seq = 0;
  Timestamp latest = 0;
  std::uint64_t commits = 0;
  std::uint64_t primary_hash = 0;
};

/// Preloads the rejoin backlog: kBacklogCommits small commits of
/// kBacklogPuts Zipf-skewed puts. FCW aborts are retried.
Backlog PreloadBacklog(const Site& primary, const ValuePool& values,
                       std::uint64_t seed) {
  const Zipf zipf(kBacklogKeys, kZipfExponent);
  std::mutex mu;
  Backlog b;
  b.first_seq = ~Timestamp{0};
  const int loaders = Loaders();
  RunParallel(loaders, [&](int w) {
    Conn conn(primary.client_port);
    Rng rng(seed * 104729 + w);
    const std::uint64_t n = kBacklogCommits * (w + 1) / loaders -
                            kBacklogCommits * w / loaders;
    Timestamp first = ~Timestamp{0};
    Timestamp last = 0;
    for (std::uint64_t done = 0; done < n;) {
      if (!conn->Begin(false).ok()) Fatal("backlog begin");
      Status s;
      for (int i = 0; i < kBacklogPuts && s.ok(); ++i) {
        s = conn->Put(Key(zipf.Next(&rng)), values.Pick(&rng));
      }
      Timestamp seq = 0;
      if (s.ok()) {
        auto committed = conn->Commit();
        s = committed.status();
        if (s.ok()) seq = *committed;
      } else if (IsFcwAbort(s)) {
        conn->Abort();
      }
      if (IsFcwAbort(s)) continue;
      if (!s.ok()) Fatal("backlog: " + s.ToString());
      first = std::min(first, seq);
      last = std::max(last, seq);
      ++done;
    }
    std::lock_guard<std::mutex> lock(mu);
    b.first_seq = std::min(b.first_seq, first);
    b.latest = std::max(b.latest, last);
    b.commits += n;
  });
  return b;
}

struct Setup {
  Cluster cluster;
  Backlog backlog;  // rejoin only
  std::vector<double> setup_s;
};

/// Builds the workload's cluster kSetups times and keeps the last one;
/// every build is timed (setup_s) and traced (setup spans).
Setup BuildCluster(const Args& args, const ValuePool& values,
                   Tracer* control) {
  Setup out;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) Teardown(&out.cluster);
    Cluster c;
    const std::uint64_t root = control->NewId();
    const auto t0 = Clock::now();
    c.primary = Spawn(args, "primary" + std::to_string(k),
                      PrimaryFlags(args, k));
    const int secondaries = args.workload == "shopping"         ? kSessions
                            : args.workload == "durable-writes" ? 1
                                                                : 0;
    for (int i = 0; i < secondaries; ++i) {
      c.secondaries.push_back(SpawnSecondary(
          args, c.primary,
          "secondary" + std::to_string(k) + "_" + std::to_string(i), i + 1));
    }
    const auto t1 = Clock::now();
    control->Add("setup.spawn", root, control->NewId(), root, t0, t1);
    Timestamp latest = 0;
    if (args.workload == "rejoin") {
      out.backlog = PreloadBacklog(c.primary, values, args.seed);
      latest = out.backlog.latest;
      out.backlog.primary_hash = StatsOf(c.primary).content_hash;
    } else {
      latest = PreloadTable(c.primary, TableKeys(args), values, args.seed);
    }
    const auto t2 = Clock::now();
    control->Add("setup.preload", root, control->NewId(), root, t1, t2);
    for (const Site& s : c.secondaries) {
      Conn conn(s.client_port);
      WaitApplied(&*conn, latest);
    }
    const auto t3 = Clock::now();
    control->Add("setup.catchup", root, control->NewId(), root, t2, t3);
    control->Add("setup", root, root, 0, t0, t3);
    out.setup_s.push_back(Ms(t3 - t0) / 1000.0);
    out.cluster = c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Measured phases.

/// shopping: kSessions closed-loop sessions, zero think time, 80/20 mix.
/// Session i holds one primary connection and one to secondary i.
void ShoppingPhase(Cluster* c, const Args& args, const ValuePool& values,
                   Phase* phase) {
  const TxnInput in{&values, TableKeys(args)};
  std::latch ready(kSessions);
  Clock::time_point end;
  std::mutex end_mu;
  RunParallel(kSessions, [&](int i) {
    Lane& lane = phase->lanes[i];
    Conn pri(c->primary.client_port);
    Conn sec(c->secondaries[i].client_port);
    RemoteSession session;
    Rng rng(args.seed * 31 + i);
    ready.arrive_and_wait();
    {
      std::lock_guard<std::mutex> lock(end_mu);
      if (end == Clock::time_point()) {
        phase->start = Clock::now();
        end = phase->start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(args.seconds));
      }
    }
    bool after_update = false;
    Clock::time_point acked;
    while (Clock::now() < end) {
      lane.tracer.NextUnit();
      const std::uint64_t trace = lane.tracer.NewId();
      const auto t0 = Clock::now();
      if (rng.Bernoulli(kUpdateTxnProb)) {
        Timestamp seq = 0;
        const Outcome o = RunUpdate(&*pri, &session, in, &rng, &lane, trace,
                                    &seq);
        const auto t1 = Clock::now();
        lane.tracer.Add("txn.update", trace, trace, 0, t0, t1);
        if (o == Outcome::kCommitted) {
          lane.update_ms.push_back(Ms(t1 - t0));
          lane.txn_ms.push_back(Ms(t1 - t0));
          lane.Done(Ms(t1 - t0));
          after_update = true;
          acked = t1;
        }
      } else {
        Clock::time_point begun;
        const Outcome o =
            RunReadOnly(&*sec, &session, in, &rng, &lane, trace, &begun);
        const auto t1 = Clock::now();
        lane.tracer.Add("txn.ro", trace, trace, 0, t0, t1);
        if (o == Outcome::kCommitted) {
          lane.ro_ms.push_back(Ms(t1 - t0));
          lane.txn_ms.push_back(Ms(t1 - t0));
          lane.Done(Ms(t1 - t0));
          // The first read-only begin after the session's own commit blocks
          // until that commit is visible here: commit ack -> visible.
          if (after_update) lane.lag_ms.push_back(Ms(begun - acked));
        }
        after_update = false;
      }
    }
  });
  phase->threads = kSessions;
}

/// durable-writes: kWriters connections drain one fixed arrival schedule of
/// update transactions (rate 0 = closed loop); latency runs from each
/// transaction's intended start. A probe connection (the calling thread)
/// waits at the secondary for each newly acked commit: ack -> visible.
void DurablePhase(Cluster* c, const Args& args, const ValuePool& values,
                  Phase* phase) {
  const TxnInput in{&values, TableKeys(args)};
  const bool open_loop = args.rate > 0;
  const std::uint64_t arrivals =
      open_loop ? static_cast<std::uint64_t>(args.rate * args.seconds) : 0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(open_loop ? 1.0 / args.rate : 0));
  std::atomic<std::uint64_t> next{0};
  std::latch ready(kWriters + 1);
  Clock::time_point t0;
  std::mutex mu;  // guards t0 set-up and the ack hand-off below
  std::condition_variable cv;
  Timestamp acked_seq = 0;
  Clock::time_point acked_at;
  int writers_done = 0;

  RunParallel(kWriters + 1, [&](int i) {
    Lane& lane = phase->lanes[i];
    if (i == 0) {
      Conn sec(c->secondaries[0].client_port);
      ready.arrive_and_wait();
      Timestamp probed = 0;
      for (;;) {
        Timestamp seq = 0;
        Clock::time_point at;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return acked_seq > probed || writers_done == kWriters;
          });
          if (acked_seq <= probed) break;
          seq = acked_seq;
          at = acked_at;
        }
        lane.tracer.NextUnit();
        const std::uint64_t trace = lane.tracer.NewId();
        const Status s = lane.tracer.Call("sec.waitseq", trace,
                                          [&] { return sec->WaitSeq(seq); });
        if (!s.ok()) {
          ++lane.errors;
          continue;
        }
        lane.lag_ms.push_back(Ms(Clock::now() - at));
        probed = seq;
      }
      return;
    }
    Conn pri(c->primary.client_port);
    RemoteSession session;
    Rng rng(args.seed * 131 + i);
    ready.arrive_and_wait();
    Clock::time_point start;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (t0 == Clock::time_point()) t0 = phase->start = Clock::now();
      start = t0;
    }
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(args.seconds));
    // A schedule the cluster cannot keep up with still ends: arrivals not
    // started by then count as failed.
    const auto hard_stop = end + std::chrono::seconds(30);
    for (;;) {
      Clock::time_point due;
      if (open_loop) {
        const std::uint64_t k = next.fetch_add(1);
        if (k >= arrivals) break;
        due = start + interval * static_cast<std::int64_t>(k);
        const auto now = Clock::now();
        if (now > hard_stop) {
          // This arrival, plus the ones no writer has claimed yet: claimed
          // once, by whichever writer gets here first.
          const std::uint64_t unclaimed = next.exchange(arrivals);
          lane.errors += 1 + (unclaimed < arrivals ? arrivals - unclaimed : 0);
          break;
        }
        if (now < due) std::this_thread::sleep_until(due);
        lane.late_ms.push_back(std::max(0.0, Ms(Clock::now() - due)));
      } else {
        due = Clock::now();
        if (due >= end) break;
      }
      lane.tracer.NextUnit();
      const std::uint64_t trace = lane.tracer.NewId();
      const auto t_start = Clock::now();
      Timestamp seq = 0;
      const Outcome o =
          RunUpdate(&*pri, &session, in, &rng, &lane, trace, &seq);
      const auto t1 = Clock::now();
      lane.tracer.Add("txn.update", trace, trace, 0, t_start, t1);
      if (o != Outcome::kCommitted) continue;
      lane.update_ms.push_back(Ms(t1 - due));
      lane.txn_ms.push_back(Ms(t1 - due));
      lane.Done(Ms(t1 - due));
      {
        std::lock_guard<std::mutex> lock(mu);
        if (seq > acked_seq) {
          acked_seq = seq;
          acked_at = t1;
        }
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++writers_done;
    }
    cv.notify_one();
  });
  phase->threads = kWriters + 1;
}

/// rejoin: repeatedly spawn a fresh secondary, time spawn -> caught up to
/// the primary's latest commit, verify its ContentHash, and kill -9 it.
void RejoinPhase(Cluster* c, const Args& args, const Backlog& backlog,
                 Phase* phase) {
  Lane& lane = phase->lanes[0];
  Tracer& tr = lane.tracer;
  phase->start = Clock::now();
  const auto end =
      phase->start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    tr.NextUnit();
    const std::uint64_t trace = tr.NewId();
    const auto t0 = Clock::now();
    Site s = SpawnSecondary(args, c->primary,
                            "rejoin" + std::to_string(lane.rejoins), 1);
    const auto t1 = Clock::now();
    SiteStats stats;
    Clock::time_point t2;
    Clock::time_point t3;
    {
      Conn conn(s.client_port);
      WaitApplied(&*conn, backlog.first_seq);
      t2 = Clock::now();
      WaitApplied(&*conn, backlog.latest);
      t3 = Clock::now();
      auto st = conn->Stats();
      if (!st.ok()) Fatal("rejoin stats: " + st.status().ToString());
      stats = *st;
    }
    const Proc proc = ReadProc(s.pid);
    Stop(&s, SIGKILL);
    tr.Add("rejoin.spawn", trace, tr.NewId(), trace, t0, t1);
    tr.Add("rejoin.attach", trace, tr.NewId(), trace, t1, t2);
    tr.Add("rejoin.replay", trace, tr.NewId(), trace, t2, t3);
    tr.Add("rejoin", trace, trace, 0, t0, t3);
    ++lane.rejoins;
    if (stats.content_hash != backlog.primary_hash) {
      ++lane.rejoin_hash_mismatches;
    }
    lane.rejoin_reconnects += stats.wire_connections;
    lane.rejoin_cpu_ms += proc.cpu_ms;
    lane.rejoin_hwm_mb = std::max(lane.rejoin_hwm_mb, proc.hwm_mb);
    lane.rejoin_ms.push_back(Ms(t3 - t0));
    lane.Done(Ms(t3 - t0));
    lane.spawn_ms.push_back(Ms(t1 - t0));
    lane.attach_ms.push_back(Ms(t2 - t1));
    lane.replay_s.push_back(Ms(t3 - t2) / 1000.0);
  } while (Clock::now() < end);
  phase->threads = 1;
}

Phase RunPhase(Setup* setup, const Args& args, const ValuePool& values) {
  Phase phase;
  const int lanes = args.workload == "shopping"         ? kSessions
                    : args.workload == "durable-writes" ? kWriters + 1
                                                        : 1;
  for (int i = 0; i < lanes; ++i) phase.lanes.emplace_back(args.trace, i);
  phase.before = Take(&setup->cluster);
  if (args.workload == "shopping") {
    ShoppingPhase(&setup->cluster, args, values, &phase);
  } else if (args.workload == "durable-writes") {
    DurablePhase(&setup->cluster, args, values, &phase);
  } else {
    RejoinPhase(&setup->cluster, args, setup->backlog, &phase);
  }
  phase.seconds = Ms(Clock::now() - phase.start) / 1000.0;
  phase.after = Take(&setup->cluster);
  return phase;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  double value;
  std::string unit;
  std::uint64_t n;  // samples, or the count the ratio is taken over
};
using Metrics = std::map<std::string, Metric>;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddQuantiles(Metrics* m, const std::string& name,
                  const std::vector<double>& v, const std::string& unit,
                  bool p99 = true) {
  (*m)[name + ".p50"] = {Quantile(v, 0.50), unit, v.size()};
  if (p99) (*m)[name + ".p99"] = {Quantile(v, 0.99), unit, v.size()};
}

std::vector<double> Gather(const Phase& p, std::vector<double> Lane::*field) {
  std::vector<double> out;
  for (const Lane& l : p.lanes) {
    out.insert(out.end(), (l.*field).begin(), (l.*field).end());
  }
  return out;
}

template <class T>
T Sum(const Phase& p, T Lane::*field) {
  T n = 0;
  for (const Lane& l : p.lanes) n += l.*field;
  return n;
}

/// Durations (µs) of the phase's spans named `name`.
std::vector<double> SpanUs(const Phase& p, const char* name) {
  std::vector<double> out;
  for (const Lane& l : p.lanes) {
    for (const Span& s : l.tracer.spans()) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(Ms(s.end - s.start) * 1000.0);
      }
    }
  }
  return out;
}

Metrics Collect(const Args& args, const Setup& setup, const Phase& p) {
  Metrics m;
  const bool rejoin = args.workload == "rejoin";
  const std::size_t nsites = p.after.procs.size();
  const std::size_t nsec = nsites - 1;
  auto d_proc = [&](std::size_t i, double Proc::*f) {
    return p.after.procs[i].*f - p.before.procs[i].*f;
  };
  auto d_pri = [&](std::uint64_t SiteStats::*f) {
    return static_cast<double>(p.after.stats[0].*f - p.before.stats[0].*f);
  };
  auto count = [](double v) { return static_cast<std::uint64_t>(v); };

  const std::uint64_t upd = Sum(p, &Lane::update_commits);
  const std::uint64_t rejoins = Sum(p, &Lane::rejoins);
  const double backlog = static_cast<double>(setup.backlog.commits);
  // Transactions the cluster finished: committed by clients, or replayed by
  // each rejoining secondary.
  const double txns =
      rejoin ? static_cast<double>(rejoins) * backlog
             : static_cast<double>(upd + Sum(p, &Lane::ro_commits));
  const std::vector<double> rejoin_ms = Gather(p, &Lane::rejoin_ms);
  const double catchup = Ratio(backlog, Quantile(rejoin_ms, 0.5) / 1000.0);
  double primary_cpu = d_proc(0, &Proc::cpu_ms);
  double secondary_cpu = Sum(p, &Lane::rejoin_cpu_ms);
  for (std::size_t i = 1; i < nsites; ++i) {
    secondary_cpu += d_proc(i, &Proc::cpu_ms);
  }
  double secondary_hwm = Sum(p, &Lane::rejoin_hwm_mb);  // one lane at most
  for (std::size_t i = 1; i < nsites; ++i) {
    secondary_hwm = std::max(secondary_hwm, p.after.procs[i].hwm_mb);
  }
  double rss = rejoin ? secondary_hwm : 0;
  for (const Proc& proc : p.after.procs) rss += proc.hwm_mb;

  // --- end-to-end (every workload; see README.md for their reading)
  m["setup_s"] = {Quantile(setup.setup_s, 0.5), "s", setup.setup_s.size()};
  m["txn_per_s"] = {rejoin ? catchup : Ratio(txns, p.seconds), "1/s",
                    count(txns)};
  const std::vector<double> unit_ms =
      rejoin ? rejoin_ms : Gather(p, &Lane::txn_ms);
  m["latency_ms.p50"] = {Quantile(unit_ms, 0.5), "ms", unit_ms.size()};
  m["server_cpu_ms_per_ktxn"] = {
      Ratio(primary_cpu + secondary_cpu, txns / 1000.0), "ms", count(txns)};
  m["rss_mb"] = {rss, "MB", rejoin ? 2 : nsites};

  // --- the client's view of the workload
  AddQuantiles(&m, "update_ms", Gather(p, &Lane::update_ms), "ms");
  AddQuantiles(&m, "ro_ms", Gather(p, &Lane::ro_ms), "ms");
  AddQuantiles(&m, "visible_lag_ms", Gather(p, &Lane::lag_ms), "ms");
  m["catchup_commits_per_s"] = {rejoin ? catchup : 0, "1/s",
                                rejoin_ms.size()};
  const std::uint64_t user_bytes = Sum(p, &Lane::user_bytes);
  m["wal_bytes_per_user_byte"] = {
      Ratio(d_proc(0, &Proc::write_bytes), static_cast<double>(user_bytes)),
      "ratio", user_bytes};
  std::uint64_t calls = 0;
  for (const Lane& l : p.lanes) calls += l.tracer.calls();
  m["error_ratio"] = {Ratio(static_cast<double>(Sum(p, &Lane::errors)),
                            static_cast<double>(calls)),
                      "ratio", calls};

  // --- system / net: one span per client call (traced phase only)
  AddQuantiles(&m, "system.pri_get_us", SpanUs(p, "pri.get"), "us");
  AddQuantiles(&m, "system.pri_put_us", SpanUs(p, "pri.put"), "us");
  AddQuantiles(&m, "system.sec_get_us", SpanUs(p, "sec.get"), "us");
  m["system.requests_per_s"] = {
      Ratio(static_cast<double>(calls), p.seconds), "1/s", calls};
  // --- session: read-only begin at a secondary, including the seq(c) block
  AddQuantiles(&m, "session.ro_begin_us", SpanUs(p, "sec.begin"), "us");
  // --- txn / engine
  AddQuantiles(&m, "txn.pri_begin_us", SpanUs(p, "pri.begin"), "us", false);
  AddQuantiles(&m, "txn.pri_commit_us", SpanUs(p, "pri.commit"), "us");
  const std::uint64_t attempts = Sum(p, &Lane::update_attempts);
  m["txn.abort_ratio"] = {Ratio(static_cast<double>(Sum(p, &Lane::aborts)),
                                static_cast<double>(attempts)),
                          "ratio", attempts};
  // --- wal: the primary's storage writes per committed update
  m["wal.write_bytes_per_commit"] = {
      Ratio(d_proc(0, &Proc::write_bytes), static_cast<double>(upd)), "B",
      upd};
  m["wal.write_syscalls_per_commit"] = {
      Ratio(d_proc(0, &Proc::syscw), static_cast<double>(upd)), "count", upd};
  // --- replication: the primary's outbound 'T' wire counters
  const double frames = d_pri(&SiteStats::wire_frames);
  const double records = d_pri(&SiteStats::wire_records);
  m["replication.records_per_frame"] = {Ratio(records, frames), "count",
                                        count(frames)};
  m["replication.bytes_per_record"] = {
      Ratio(d_pri(&SiteStats::wire_bytes), records), "B", count(records)};
  m["replication.writev_per_record"] = {
      Ratio(d_pri(&SiteStats::wire_writev_calls), records), "count",
      count(records)};
  m["replication.backpressure_stalls"] = {
      d_pri(&SiteStats::wire_backpressure_stalls), "count", 1};
  double reconnects = static_cast<double>(Sum(p, &Lane::rejoin_reconnects));
  for (std::size_t i = 1; i < nsites; ++i) {
    reconnects += static_cast<double>(p.after.stats[i].wire_connections -
                                      p.before.stats[i].wire_connections);
  }
  m["replication.reconnects"] = {reconnects, "count", nsec + rejoins};
  // --- rejoin stages (medians)
  m["rejoin.spawn_ms"] = {Quantile(Gather(p, &Lane::spawn_ms), 0.5), "ms",
                          rejoins};
  m["rejoin.attach_ms"] = {Quantile(Gather(p, &Lane::attach_ms), 0.5), "ms",
                           rejoins};
  m["rejoin.replay_s"] = {Quantile(Gather(p, &Lane::replay_s), 0.5), "s",
                          rejoins};
  // --- server processes. Each rejoined secondary replays the whole
  // backlog; a standing secondary serves a share of the clients' txns.
  m["site.primary.cpu_ms_per_ktxn"] = {Ratio(primary_cpu, txns / 1000.0),
                                       "ms", count(txns)};
  const double per_secondary_cpu =
      rejoin ? secondary_cpu
             : secondary_cpu / std::max(1.0, static_cast<double>(nsec));
  m["site.secondary.cpu_ms_per_ktxn"] = {
      Ratio(per_secondary_cpu, txns / 1000.0), "ms", count(txns)};
  m["site.primary.rss_mb"] = {p.after.procs[0].hwm_mb, "MB", 1};
  m["site.secondary.rss_mb"] = {secondary_hwm, "MB", rejoin ? rejoins : nsec};
  m["site.primary.threads"] = {p.after.procs[0].threads, "count", 1};
  // --- generator self-accounting
  const double gen_cpu = p.after.self.cpu_ms - p.before.self.cpu_ms;
  m["generator.cpu_share"] = {Ratio(gen_cpu, p.seconds * 1000.0 * p.threads),
                              "ratio", static_cast<std::uint64_t>(p.threads)};
  const std::vector<double> late = Gather(p, &Lane::late_ms);
  m["generator.late_ms.p99"] = {Quantile(late, 0.99), "ms", late.size()};
  m["generator.threads"] = {static_cast<double>(g_peak_threads.load()),
                            "count", 1};
  m["generator.connections"] = {static_cast<double>(g_peak_conns.load()),
                                "count", 1};
  // --- tracing: median traced unit against median untraced unit, both
  // from the same phase (traced runs only)
  if (args.trace) {
    const std::vector<double> traced = Gather(p, &Lane::traced_ms);
    const std::vector<double> untraced = Gather(p, &Lane::untraced_ms);
    const double base = Quantile(untraced, 0.5);
    m["trace.overhead_pct"] = {
        base > 0 ? (Quantile(traced, 0.5) / base - 1) * 100 : 0, "%",
        traced.size() + untraced.size()};
  }
  return m;
}

// ---------------------------------------------------------------------------
// Output.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteSpans(const std::string& path, Clock::time_point origin,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  auto us = [&](Clock::time_point t) {
    char buf[32];
    std::snprintf(
        buf, sizeof(buf), "%.3f",
        std::chrono::duration<double, std::micro>(t - origin).count());
    return std::string(buf);
  };
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      out << "{\"name\":" << JsonString(s.name) << ",\"trace\":" << s.trace
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
          << "}\n";
    }
  }
  out.close();
  if (!out) Fatal("cannot write spans to " + path);
  // Flush now, so that the write-back does not land in the next run.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) Fatal("cannot sync " + path);
  ::close(fd);
}

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

bool ParseArg(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseArg(argv[i], "--server", &v)) {
      a.server = v;
    } else if (ParseArg(argv[i], "--workdir", &v)) {
      a.workdir = v;
    } else if (ParseArg(argv[i], "--workload", &v)) {
      a.workload = v;
    } else if (ParseArg(argv[i], "--spans", &v)) {
      a.spans_path = v;
    } else if (ParseArg(argv[i], "--seed", &v)) {
      a.seed = std::stoull(v);
    } else if (ParseArg(argv[i], "--seconds", &v)) {
      a.seconds = std::stod(v);
    } else if (ParseArg(argv[i], "--trace", &v)) {
      a.trace = v == "1";
    } else if (ParseArg(argv[i], "--rate", &v)) {
      a.rate = std::stod(v);
    } else if (ParseArg(argv[i], "--primary-flag", &v)) {
      a.primary_flags.push_back(v);
    } else {
      Fatal(std::string("unknown argument ") + argv[i]);
    }
  }
  if (a.server.empty() || a.workdir.empty()) {
    Fatal("--server and --workdir are required");
  }
  if (a.workload != "shopping" && a.workload != "durable-writes" &&
      a.workload != "rejoin") {
    Fatal("unknown workload '" + a.workload + "'");
  }
  if (a.seconds <= 0) Fatal("bad --seconds");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const int nproc = NumCpus();
  const int needed = args.workload == "shopping"         ? 2 * kSessions
                     : args.workload == "durable-writes" ? kWriters + 1
                                                         : 1;
  if (needed > nproc) {
    Fatal(args.workload + " needs " + std::to_string(needed) +
          " generator connections but only " + std::to_string(nproc) +
          " CPUs are available");
  }
  const auto origin = Clock::now();
  const ValuePool values(args.seed);
  Tracer control(true, 0);
  Setup setup = BuildCluster(args, values, &control);
  ::sync();  // the measured phases start with no write-back pending

  const Phase phase = RunPhase(&setup, args, values);
  const Metrics metrics = Collect(args, setup, phase);

  std::vector<Check> checks;
  const std::uint64_t violations = Sum(phase, &Lane::prefix_violations);
  const std::uint64_t bad_rejoins = Sum(phase, &Lane::rejoin_hash_mismatches);
  checks.push_back({"session_prefix", violations == 0,
                    std::to_string(violations) +
                        " read-only begins returned a prefix below seq(c)"});
  if (args.workload == "rejoin") {
    checks.push_back({"rejoin_hash", bad_rejoins == 0,
                      std::to_string(bad_rejoins) +
                          " rejoined secondaries differ from the primary"});
  }
  {
    // Every secondary waited to the primary's latest commit; all hashes equal.
    const SiteStats pri = StatsOf(setup.cluster.primary);
    std::uint64_t differ = 0;
    for (const Site& s : setup.cluster.secondaries) {
      Conn conn(s.client_port);
      WaitApplied(&*conn, pri.latest_commit_ts);
      auto st = conn->Stats();
      if (!st.ok() || st->content_hash != pri.content_hash) ++differ;
    }
    checks.push_back({"converged", differ == 0,
                      std::to_string(differ) + " of " +
                          std::to_string(setup.cluster.secondaries.size()) +
                          " secondaries differ from the primary"});
  }
  checks.push_back({"generator_threads", g_peak_threads.load() <= nproc,
                    std::to_string(g_peak_threads.load()) + " threads, nproc " +
                        std::to_string(nproc)});
  checks.push_back({"generator_connections", g_peak_conns.load() <= nproc,
                    std::to_string(g_peak_conns.load()) +
                        " connections, nproc " + std::to_string(nproc)});
  const double share = metrics.at("generator.cpu_share").value;
  checks.push_back({"generator_not_saturated", share < kSaturatedShare,
                    "cpu share " + JsonNumber(share)});

  Teardown(&setup.cluster);
  if (args.trace && !args.spans_path.empty()) {
    std::vector<const Tracer*> tracers = {&control};
    for (const Lane& l : phase.lanes) tracers.push_back(&l.tracer);
    WriteSpans(args.spans_path, origin, tracers);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Lane& l : phase.lanes) {
    attempted += l.tracer.calls() + l.rejoins;
    failed += l.errors;
  }
  bool correct = true;
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(args.workload)
      << ",\"seed\":" << args.seed << ",\"nproc\":" << nproc
      << ",\"build_type\":" << JsonString(CLUSTERBENCH_BUILD_TYPE)
      << ",\"compiler\":" << JsonString(CLUSTERBENCH_COMPILER)
      << ",\"durable_rate\":" << JsonNumber(args.rate) << ",\"checks\":[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    correct = correct && checks[i].ok;
    out << (i ? "," : "") << "{\"name\":" << JsonString(checks[i].name)
        << ",\"ok\":" << (checks[i].ok ? "true" : "false")
        << ",\"detail\":" << JsonString(checks[i].detail) << "}";
  }
  out << "],\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
        << JsonNumber(metric.value) << ",\"unit\":" << JsonString(metric.unit)
        << ",\"n\":" << metric.n << "}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return correct ? 0 : 3;
}
