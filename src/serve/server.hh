/**
 * @file
 * The `longnail --serve` compile server (docs/compile-server.md).
 *
 * A long-running daemon on a Unix-domain socket: clients send
 * length-prefixed JSON compile requests (serve/protocol.hh) and get
 * back the same deterministic CompileSummary the one-shot CLI renders,
 * byte-identical artifacts included. Concurrency comes from one
 * handler thread per connection dispatching compile work onto a shared
 * work-stealing ThreadPool; artifacts come from a three-tier lookup
 * (in-memory LRU, then the on-disk content-addressed store, then a
 * fresh compile).
 *
 * Robustness properties (each pinned by tests/serve/):
 *
 *   - Admission control: at most `admissionMax` compile requests are
 *     in flight; excess requests are shed immediately with an LN3110
 *     "overloaded" reply carrying a retry-after hint, instead of
 *     queueing unboundedly.
 *   - Deadlines: a request's `deadlineMs` arms a CancelToken polled at
 *     pipeline phase boundaries; an expired request gets a structured
 *     LN3111 reply while concurrent requests are unaffected.
 *   - Fault isolation: a request that trips a failpoint (including the
 *     dedicated `serve` failpoint, LN3904) gets a structured error
 *     reply; the daemon never dies with it.
 *   - Graceful drain: on SIGINT/SIGTERM (or a `shutdown` request) the
 *     server stops accepting, lets in-flight requests finish or
 *     deadline out within a grace period, answers every blocked client
 *     (LN3112 "draining"), flushes caches, sweeps cache temp files and
 *     returns so the CLI can exit 0.
 */

#ifndef LONGNAIL_SERVE_SERVER_HH
#define LONGNAIL_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "driver/batch.hh"
#include "serve/memcache.hh"
#include "serve/protocol.hh"
#include "support/cancel.hh"
#include "support/socket.hh"
#include "support/threadpool.hh"

namespace longnail {
namespace serve {

struct ServeOptions
{
    std::string socketPath;
    /** Compile worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Max concurrently admitted compile requests; beyond this the
     * server sheds with LN3110 instead of queueing unboundedly. */
    unsigned admissionMax = 8;
    /** retryAfterMs hint attached to shed replies. */
    long retryAfterMs = 100;
    /** Close connections silent for this long (LN3103). <= 0 waits
     * forever. */
    long idleTimeoutMs = 30000;
    /** Deadline applied to requests that do not send their own;
     * 0 = none. */
    long defaultDeadlineMs = 0;
    /** How long drain waits for in-flight requests before cancelling
     * their tokens. */
    long drainGraceMs = 2000;
    /** In-memory hot cache bound; 0 disables the memory tier. */
    size_t memCacheEntries = 64;
    /** On-disk artifact cache; empty disables the disk tier. */
    std::string cacheDir;
    size_t cacheMaxEntries = 0;
    /** Structured JSONL event log ("-" = stderr, "" = off). The server
     * owns the EventLog lifetime: opened in run(), closed after
     * drain. */
    std::string logPath;
    /** Chrome trace written at shutdown ("" = off). */
    std::string tracePath;
    /** Prometheus exposition written at shutdown ("" = off). */
    std::string metricsPath;
    /** Flight-recorder postmortem directory ("" = postmortems off). */
    std::string postmortemDir;
    /**
     * External stop request (the CLI passes signals::token() so
     * SIGINT/SIGTERM initiate drain); polled by the accept loop.
     */
    const CancelToken *stopToken = nullptr;
};

/** What happened over one serve lifetime (returned by run()). */
struct ServeStats
{
    uint64_t connections = 0;
    uint64_t requests = 0; ///< every parsed request, any kind
    uint64_t compiles = 0; ///< fresh compiles actually run
    uint64_t memHits = 0;
    uint64_t diskHits = 0;
    uint64_t shed = 0;
    uint64_t deadlineMisses = 0;
    uint64_t drainRejects = 0; ///< LN3112 replies
    uint64_t protocolErrors = 0;
    uint64_t idleTimeouts = 0;
    uint64_t injectedFaults = 0;
    size_t tmpFilesRemoved = 0;
};

class Server
{
  public:
    explicit Server(ServeOptions options);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Serve until a stop is requested (stopToken, requestStop() or a
     * `shutdown` request), then drain gracefully and return the
     * lifetime stats. @return false with @p error set only when the
     * socket could not be opened -- once serving, all failures are
     * per-connection and run() still returns true.
     */
    bool run(ServeStats &stats, std::string &error);

    /** True once the socket is accepting (for tests that spawn run()
     * on a thread and need to know when to connect). */
    bool ready() const { return ready_.load(); }

    /** Initiate graceful drain from another thread (idempotent). */
    void requestStop();

  private:
    struct ConnState
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void handleConnection(net::Connection conn);
    /** Dispatch one request. @p outcome (for the reply log record and
     * the serve.outcome.* counters): "ok", "shed", "deadline",
     * "drain", "fault" or "compile-error". */
    std::string handleRequest(const Request &request,
                              std::string &outcome);
    std::string handleCompile(const Request &request,
                              std::string &outcome);
    /** handleCompile's body; split out so the wrapper can time it and
     * attribute the latency to outcome and cache tier. @p tier is set
     * for summary-producing outcomes ("mem", "disk", "fresh"). */
    std::string compileReply(const Request &request,
                             std::string &outcome, std::string &tier);
    void shutdownPhase(ServeStats &stats);
    void reapConnections(bool join_all);

    ServeOptions options_;
    MemCache memCache_;
    std::unique_ptr<ThreadPool> pool_;
    driver::CompileSession session_;
    net::Listener listener_;

    /** Self-pipe: written once at drain start; never drained, so every
     * blocked recvFrame/accept poll sees it (level-triggered). */
    int drainPipe_[2] = {-1, -1};
    std::atomic<bool> draining_{false};
    std::atomic<bool> ready_{false};

    std::mutex connMutex_;
    std::vector<std::unique_ptr<ConnState>> connections_;

    /** Tokens of in-flight compile requests; drain cancels them after
     * the grace period. */
    std::mutex tokensMutex_;
    std::set<CancelToken *> activeTokens_;
    std::atomic<unsigned> inFlight_{0};

    // Lifetime tallies (mirrored into ServeStats at shutdown).
    std::atomic<uint64_t> connections2_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> compiles_{0};
    std::atomic<uint64_t> diskHits_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> deadlineMisses_{0};
    std::atomic<uint64_t> drainRejects_{0};
    std::atomic<uint64_t> protocolErrors_{0};
    std::atomic<uint64_t> idleTimeouts_{0};
    std::atomic<uint64_t> injectedFaults_{0};

    /** Mints "s<n>" request ids for requests that arrive without one. */
    std::atomic<uint64_t> ridCounter_{0};
    /** True when run() opened the EventLog (and must close it). */
    bool ownsEventLog_ = false;
};

} // namespace serve
} // namespace longnail

#endif // LONGNAIL_SERVE_SERVER_HH
