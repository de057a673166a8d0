// The served workload, reverse_exchange: one closed-loop client drives a
// real rdx_serve daemon (a child process) over its Unix socket with
// RDXC-framed requests. Every reply is compared byte for byte with an
// in-process reference built from the library calls rdx_cli makes.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "base/strings.h"
#include "columnar/serialize.h"
#include "core/query.h"
#include "generator.h"
#include "layers.h"
#include "mapping/composition.h"
#include "mapping/extended.h"
#include "mapping/mapping_io.h"
#include "mapping/reverse_query.h"
#include "serve/catalog.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace rdxbench {
namespace {

using rdx::Instance;
using rdx::Result;
using rdx::SchemaMapping;
using rdx::Status;
using rdx::StrCat;
namespace serve = rdx::serve;

/// A rdx_serve child process on a Unix socket in the working directory.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Start(const Config& config, const std::string& socket) {
    socket_ = socket;
    const std::string catalog = config.root + "/data/serve.catalog";
    std::vector<const char*> argv = {
        config.serve_bin.c_str(), "serve",     "--socket", socket_.c_str(),
        "--catalog",              catalog.c_str(), "--precompile", nullptr};
    unlink(socket_.c_str());
    // The child execs only once its instruction counter is attached, so
    // every daemon thread is counted from the first instruction.
    int go[2];
    if (pipe(go) != 0) {
      return Status::Internal(StrCat("pipe: ", strerror(errno)));
    }
    pid_ = fork();
    if (pid_ < 0) {
      close(go[0]);
      close(go[1]);
      return Status::Internal(StrCat("fork: ", strerror(errno)));
    }
    if (pid_ == 0) {
      // The daemon dies with the benchmark, and keeps stdout clean.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(STDERR_FILENO, STDOUT_FILENO);
      close(go[1]);
      char byte = 0;
      if (read(go[0], &byte, 1) != 1) _exit(127);
      close(go[0]);
      execv(argv[0], const_cast<char* const*>(argv.data()));
      _exit(127);
    }
    close(go[0]);
    Status counted = instructions_.Open(pid_, /*from_exec=*/true);
    if (counted.ok() && write(go[1], "g", 1) != 1) {
      counted = Status::Internal(StrCat("pipe write: ", strerror(errno)));
    }
    close(go[1]);
    if (!counted.ok()) {
      Stop();
      return counted;
    }
    // Plans are precompiled before the daemon binds, so the first
    // successful connect means catalog load and compilation are done.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Internal("rdx_serve exited during start-up");
      }
      Result<int> fd = Connect();
      if (fd.ok()) {
        close(*fd);
        return Status::OK();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::Internal("rdx_serve did not come up within 30 s");
  }

  Result<int> Connect() const {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_.data(),
                std::min(socket_.size(), sizeof(addr.sun_path) - 1));
    int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal(StrCat("socket: ", strerror(errno)));
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close(fd);
      return Status::Internal(StrCat("connect: ", strerror(errno)));
    }
    return fd;
  }

  long pid() const { return pid_; }
  /// User-space instructions the daemon has retired so far.
  double instructions() const { return instructions_.Read(); }

  /// SIGTERM (the daemon drains and exits 0), then reap; SIGKILL after 10 s.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    unlink(socket_.c_str());
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
  InstructionCounter instructions_;
};

/// What the traced run's leaf calls work on: the worlds of the request's
/// disjunctive chase (query evaluation, rendering) and the facts its
/// chases produce (FactBound slack).
struct Worlds {
  std::vector<Instance> worlds;
  std::size_t produced = 0;
};

/// One distinct request of a workload's pool; ops cycle over the pool.
struct Entry {
  serve::Request request;
  Instance instance;
  int kind = 0;
  std::optional<std::string> expected;  // reference reply, on first use
  std::optional<Worlds> worlds;         // traced run only, on first use
};

std::string RenderWorlds(const std::vector<Instance>& branches) {
  std::vector<std::string> worlds;
  for (const Instance& v : branches) worlds.push_back(v.CanonicalText());
  std::sort(worlds.begin(), worlds.end());
  std::string out = StrCat(branches.size(), " possible world(s):\n");
  for (const std::string& w : worlds) out += StrCat("  ", w, "\n");
  return out;
}

class ReverseExchange : public Workload {
 public:
  explicit ReverseExchange(const Config& config) : config_(config) {}

  ~ReverseExchange() override {
    if (fd_ >= 0) close(fd_);
  }

  Status Setup() override {
    static int instances = 0;
    RDX_RETURN_IF_ERROR(daemon_.Start(
        config_, StrCat("rdxbench-", getpid(), "-", instances++, ".sock")));
    Generate();
    Rng order_rng = Rng::Stream(config_.seed, 99);
    order_.resize(pool_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[order_rng.Below(i)]);
    }

    RDX_ASSIGN_OR_RETURN(fd_, daemon_.Connect());
    // Warm-up: one request of each kind, so the first measured op does
    // not pay for first-touch allocation in the daemon.
    int warmed = -1;
    for (const Entry& e : pool_) {
      if (e.kind <= warmed) continue;
      RDX_ASSIGN_OR_RETURN(serve::Reply reply, Roundtrip(e.request, nullptr));
      if (reply.status != serve::ReplyStatus::kOk) {
        return Status::Internal(
            StrCat("warm-up ", serve::CommandName(e.request.command),
                   " failed: ", reply.payload));
      }
      warmed = e.kind;
    }
    return Status::OK();
  }

  // The reference's mappings and query, and the plan cache the traced run
  // executes requests on in-process (over the daemon's catalog). setup_s
  // leaves them out: the daemon does not need them.
  Status PrepareChecks() override {
    const std::string data = config_.root + "/data/";
    RDX_ASSIGN_OR_RETURN(decomposition_,
                         rdx::LoadMappingFile(data + "decomposition.rdx"));
    RDX_ASSIGN_OR_RETURN(
        decomposition_reverse_,
        rdx::LoadMappingFile(data + "decomposition_reverse.rdx"));
    RDX_ASSIGN_OR_RETURN(selfloop_reverse_,
                         rdx::LoadMappingFile(data + "selfloop_reverse.rdx"));
    RDX_ASSIGN_OR_RETURN(query_, rdx::ConjunctiveQuery::Parse(kQuery));
    RDX_ASSIGN_OR_RETURN(std::vector<serve::CatalogEntry> catalog,
                         serve::LoadCatalogFile(data + "serve.catalog"));
    plans_ = std::make_unique<serve::PlanCache>(std::move(catalog));
    return plans_->CompileAll();
  }

  OpOutcome RunOp(uint64_t k, Layers* layers) override {
    Entry& e = pool_[order_[k % order_.size()]];
    const std::string& expected = Expected(e);
    OpOutcome out;
    out.kind = e.kind;
    if (layers != nullptr) layers->BeginOp(k);
    const uint64_t start = NowNs();
    const double client = SelfInstructions().Read();
    const double daemon = daemon_.instructions();
    Result<serve::Reply> reply = Roundtrip(e.request, layers);
    out.instructions = (daemon_.instructions() - daemon) +
                       (SelfInstructions().Read() - client);
    out.latency_us = MicrosSince(start);
    if (!reply.ok()) {
      Fail(&out, reply.status().ToString());
    } else if (reply->status != serve::ReplyStatus::kOk) {
      Fail(&out, StrCat(serve::ReplyStatusName(reply->status), ": ",
                        reply->payload));
    } else {
      if (reply->payload != expected) {
        Fail(&out, StrCat("served ", serve::CommandName(e.request.command),
                          " reply differs from the in-process reference"));
      }
      if (layers != nullptr) {
        std::string replayed = Replay(e, layers);
        if (replayed != expected) {
          Fail(&out,
               StrCat("layer replay of ", serve::CommandName(e.request.command),
                      " differs from the reference"));
        }
      }
    }
    if (layers != nullptr) layers->EndOp();
    return out;
  }

  uint64_t PeakRssKb() override { return ReadVmHwmKb(daemon_.pid()); }
  uint64_t PassOps() const override { return pool_.size(); }

 private:
  static constexpr char kQuery[] = "q(n, d) :- Emp(n, d, g)";

  static void Fail(OpOutcome* out, std::string error) {
    if (!out->failed) out->error = std::move(error);
    out->failed = true;
  }

  void Add(serve::Command command, const std::string& mapping,
           Instance instance, int kind) {
    Entry e;
    e.request.command = command;
    e.request.flags = command == serve::Command::kCertain
                          ? uint8_t{0}
                          : serve::kFlagCanonical;
    e.request.mapping = mapping;
    if (command == serve::Command::kCertain) {
      e.request.reverse_mapping = "decomposition_reverse";
      e.request.query = kQuery;
    }
    e.request.instance_rdxc = rdx::columnar::Serialize(instance);
    e.instance = std::move(instance);
    e.kind = kind;
    pool_.push_back(std::move(e));
  }

  // reverse_exchange: certain answers over Emp instances with nulls
  // (200-400 facts), and reverse requests over SlPp instances with nulls
  // and 0-6 self-loops (1-64 worlds). Sizes are stratified, so every
  // seed sees the same size mix; the seed picks contents and order.
  void Generate() {
    const std::size_t per_kind = config_.smoke ? 2 : 8;
    for (std::size_t i = 0; i < per_kind; ++i) {
      const std::size_t facts =
          config_.smoke ? 20 : 200 + 200 * i / (per_kind - 1);
      Rng rng = Rng::Stream(config_.seed, 100 + i);
      NullEmpShape shape;
      shape.facts = facts;
      shape.null_share = 0.25;
      shape.employees = facts;
      shape.depts = facts / 8 + 1;
      shape.managers = facts / 4 + 1;
      shape.nulls = facts / 2 + 1;
      Add(serve::Command::kCertain, "decomposition",
          NullEmp(rng, shape, StrCat("c", i, "_")).original, 0);
    }
    for (std::size_t i = 0; i < per_kind; ++i) {
      const std::size_t facts =
          config_.smoke ? 20 : 200 + 200 * i / (per_kind - 1);
      Rng rng = Rng::Stream(config_.seed, 200 + i);
      Add(serve::Command::kReverse, "selfloop_reverse",
          SelfLoopTarget(rng, facts, i % 7, StrCat("r", i, "_")), 1);
    }
  }

  // One closed-loop request: frame encode, socket round trip, reply
  // decode — the client's whole share of an op.
  Result<serve::Reply> Roundtrip(const serve::Request& request,
                                 Layers* layers) {
    auto timed = [&](const char* name, auto&& f) -> decltype(f()) {
      if (layers == nullptr) return f();
      return layers->Time(name, f);
    };
    const std::string body =
        timed("serve.frame", [&] { return serve::EncodeRequest(request); });
    Result<std::string> reply_body = timed("serve.roundtrip", [&] {
      Status written = serve::WriteFrame(fd_, body);
      if (!written.ok()) return Result<std::string>(written);
      bool eof = false;
      Result<std::string> read = serve::ReadFrame(fd_, &eof);
      if (read.ok() && eof) {
        return Result<std::string>(
            Status::Internal("rdx_serve closed the connection"));
      }
      return read;
    });
    if (!reply_body.ok()) return reply_body.status();
    return timed("serve.frame",
                 [&] { return serve::DecodeReply(*reply_body); });
  }

  // The reply rdx_cli prints for the same mapping and instance, built
  // from the same library calls it makes (chase|reverse|certain).
  const std::string& Expected(Entry& e) {
    if (e.expected.has_value()) return *e.expected;
    std::string out;
    switch (e.request.command) {
      case serve::Command::kReverse: {
        Result<std::vector<Instance>> r =
            rdx::DisjunctiveChaseMapping(selfloop_reverse_, e.instance);
        out = r.ok() ? RenderWorlds(*r)
                     : StrCat("error: ", r.status().ToString());
        break;
      }
      default: {
        Result<rdx::TupleSet> r = rdx::ReverseCertainAnswers(
            decomposition_, decomposition_reverse_, *query_, e.instance);
        // The workload promises non-empty certain answers; an empty set
        // would make the byte comparison vacuous.
        out = !r.ok()        ? StrCat("error: ", r.status().ToString())
              : r->empty()   ? std::string("error: empty certain answers")
                             : StrCat(rdx::TupleSetToString(*r), "\n");
        break;
      }
    }
    e.expected = std::move(out);
    return *e.expected;
  }

  // The worlds and chase sizes of `e`, from the library calls its served
  // command makes: the disjunctive chase of a reverse request, and the
  // round trip (forward chase, then the recovery's disjunctive chase) of
  // a certain request.
  const Worlds& WorldsOf(Entry& e) {
    if (e.worlds.has_value()) return *e.worlds;
    Worlds out;
    out.produced = e.instance.size();
    Result<std::vector<Instance>> worlds =
        e.request.command == serve::Command::kReverse
            ? rdx::DisjunctiveChaseMapping(selfloop_reverse_, e.instance)
            : rdx::ReverseRoundTrip(decomposition_, decomposition_reverse_,
                                    e.instance);
    if (worlds.ok()) out.worlds = std::move(*worlds);
    if (e.request.command == serve::Command::kReverse) {
      std::size_t largest = 0;
      for (const Instance& w : out.worlds) largest = std::max(largest, w.size());
      out.produced += largest;
    } else {
      Result<Instance> forward = rdx::ChaseMapping(decomposition_, e.instance);
      if (forward.ok()) out.produced += forward->size();
    }
    e.worlds = std::move(out);
    return *e.worlds;
  }

  // The traced run's in-process copy of the request. The daemon's own
  // entry point, serve::ExecuteRequest, runs it on a plan cache over the
  // same catalog, so the engine counters charge chase, dchase and hom to
  // the code rdx_serve runs. Calls with no counter of their own are timed
  // as leaf calls beside it: the frame and RDXC codecs, plan lookup,
  // FactBound, ReverseCertainAnswers, query evaluation and rendering.
  // Returns the reply payload, or an error text.
  std::string Replay(Entry& e, Layers* layers) {
    const Worlds& worlds = WorldsOf(e);
    const std::string body = serve::EncodeRequest(e.request);
    Result<serve::Request> request = layers->Time(
        "serve.frame", [&] { return serve::DecodeRequest(body); });
    if (!request.ok()) return "error: frame decode";
    const uint64_t hits = plans_->hits(), misses = plans_->misses();
    const serve::Reply reply = layers->Engine("serve.execute", [&] {
      return serve::ExecuteRequest(*plans_, *request, serve::ServerOptions{},
                                   std::chrono::steady_clock::now());
    });
    layers->Add("serve.plan_hits", static_cast<double>(plans_->hits() - hits));
    layers->Add("serve.plan_misses",
                static_cast<double>(plans_->misses() - misses));
    layers->Time("serve.frame", [&] { return serve::EncodeReply(reply); });

    const std::string rdxc = layers->Time("columnar.encode", [&] {
      return rdx::columnar::Serialize(e.instance);
    });
    layers->Add("columnar.bytes", static_cast<double>(rdxc.size()));
    layers->Add("columnar.facts", static_cast<double>(e.instance.size()));
    Result<const serve::CompiledPlan*> plan = layers->Time(
        "serve.plan_get", [&] { return plans_->Get(request->mapping); });
    Result<Instance> decoded = layers->Time("columnar.decode", [&] {
      return rdx::columnar::Deserialize(request->instance_rdxc);
    });
    if (!plan.ok() || !decoded.ok()) return "error: plan lookup or decode";
    const uint64_t bound = layers->Time("analysis.fact_bound", [&] {
      uint64_t b = (*plan)->analysis.bound.FactBound(*decoded);
      if (b == rdx::ChaseSizeBound::kUnbounded) {
        b = (*plan)->analysis.termination.bound.FactBound(*decoded);
      }
      return b;
    });
    layers->Add("analysis.bound", static_cast<double>(bound));
    layers->Add("analysis.facts_produced",
                static_cast<double>(worlds.produced));
    if (request->command == serve::Command::kReverse) {
      layers->Time("core.render", [&] {
        std::size_t bytes = 0;
        for (const Instance& w : worlds.worlds) bytes += w.CanonicalText().size();
        return bytes;
      });
    } else {
      Result<rdx::TupleSet> certain = layers->Time("mapping.certain", [&] {
        return rdx::ReverseCertainAnswers(decomposition_,
                                          decomposition_reverse_, *query_,
                                          *decoded);
      });
      layers->Time("core.query_eval", [&] {
        std::size_t answers = 0;
        for (const Instance& w : worlds.worlds) {
          Result<rdx::TupleSet> a = query_->Eval(w);
          if (a.ok()) answers += a->size();
        }
        return answers;
      });
      if (certain.ok()) {
        layers->Time("core.render",
                     [&] { return rdx::TupleSetToString(*certain); });
      }
    }
    if (reply.status != serve::ReplyStatus::kOk) {
      return StrCat("error: ", reply.payload);
    }
    return reply.payload;
  }

  Config config_;
  Daemon daemon_;
  int fd_ = -1;
  SchemaMapping decomposition_, decomposition_reverse_, selfloop_reverse_;
  std::optional<rdx::ConjunctiveQuery> query_;
  std::unique_ptr<serve::PlanCache> plans_;
  std::vector<Entry> pool_;
  std::vector<std::size_t> order_;
};

}  // namespace

std::unique_ptr<Workload> MakeReverseExchange(const Config& config) {
  return std::make_unique<ReverseExchange>(config);
}

}  // namespace rdxbench
