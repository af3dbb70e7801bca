/**
 * @file
 * serve-mix: the shipped daemon (`longnail --serve --jobs=2`) with a
 * memory-cache bound below the 88-key working set (44 catalog units at
 * -O0 and -O1), driven by one client process with two connections in a
 * closed loop. Nine in ten requests repeat a key drawn uniformly from
 * the working set, so they are answered by the memory tier, or by the
 * disk tier after LRU eviction; every tenth is a fresh edit, whose
 * seeded comment tag gives a new cache key with the same compile work.
 *
 * Each request of a key carries the key as id and rid, so every reply
 * of that key must equal, byte for byte, the reply rendered from the
 * in-process compile of the key with the same cache tier. Replies are
 * hashed while the load runs and checked after it.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <thread>

#include "asic/flow.hh"
#include "common.hh"
#include "driver/batch.hh"
#include "driver/isax_catalog.hh"
#include "serve/protocol.hh"
#include "support/socket.hh"

extern char **environ;

namespace perfbench {

using namespace longnail;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kConnections = 2;
constexpr unsigned kMemCacheEntries = 32;
/** One request in this many is a fresh edit. */
constexpr uint64_t kFreshEvery = 10;
/** The daemon's peak RSS is read once this many measured requests
 * have completed (fewer than any run of the default length serves), so
 * it is taken at the same amount of work in every run. */
constexpr size_t kRssAtRequests = 4000;
constexpr int kReplyTimeoutMs = 120000;

struct Key
{
    std::string id; ///< "<isax>@<core>-O<n>", also the request rid
    const catalog::IsaxEntry *entry = nullptr;
    driver::CompileOptions options;
};

std::vector<Key>
serveKeys()
{
    std::vector<Key> keys;
    for (const catalog::IsaxEntry &entry : catalog::allIsaxes())
        for (const std::string &core : driver::builtinCores())
            for (unsigned opt : {0u, 1u}) {
                Key key;
                key.id = entry.name + "@" + core + "-O" +
                         std::to_string(opt);
                key.entry = &entry;
                key.options.coreName = core;
                key.options.optLevel = opt;
                keys.push_back(std::move(key));
            }
    return keys;
}

serve::Request
compileRequest(const Key &key, uint64_t edit_tag)
{
    serve::Request request;
    request.kind = serve::RequestKind::Compile;
    request.id = key.id;
    request.rid = key.id;
    request.unitName = key.id;
    request.source = key.entry->source;
    if (edit_tag)
        request.source +=
            "\n// perfbench edit " + std::to_string(edit_tag) + "\n";
    request.target = key.entry->target;
    request.options = key.options;
    return request;
}

/**
 * The seeded request stream, shared by the client connections. It
 * replays one seeded epoch of keys * kFreshEvery requests over and
 * over: every tenth request is a fresh edit, walking a seeded
 * permutation of all keys, so every key is edited once per epoch; the
 * others repeat a key drawn uniformly. An edit gets a new tag in every
 * epoch, so it always compiles, and every epoch holds the same work.
 */
class Stream
{
  public:
    Stream(uint64_t seed, size_t keys)
    {
        Rng rng(seed);
        std::vector<size_t> edits(keys);
        for (size_t k = 0; k < keys; ++k)
            edits[k] = k;
        rng.shuffle(edits);
        for (size_t i = 1; i <= keys * kFreshEvery; ++i) {
            if (i % kFreshEvery == 0)
                epoch_.push_back({edits[i / kFreshEvery - 1], true});
            else
                epoch_.push_back({size_t(rng.below(keys)), false});
        }
        tagBase_ = (seed & 0xffffff) * 1000000;
    }

    struct Draw
    {
        size_t key = 0;
        uint64_t editTag = 0; ///< non-zero: a fresh edit
    };

    Draw
    next()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        size_t position = requests_ % epoch_.size();
        if (position == 0)
            epochStarts_.push_back(Clock::now());
        const Slot &slot = epoch_[position];
        Draw draw;
        draw.key = slot.key;
        if (slot.edit)
            draw.editTag = tagBase_ + requests_ + 1;
        ++requests_;
        return draw;
    }

    size_t epochSize() const { return epoch_.size(); }

    /** Epochs begun so far. */
    size_t
    epochsStarted()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return epochStarts_.size();
    }

    /** Durations of the epochs completed so far, in seconds (each from
     * the dispatch of its first request to that of the next epoch's). */
    Samples
    epochSeconds()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Samples seconds;
        for (size_t e = 0; e + 1 < epochStarts_.size(); ++e)
            seconds.add(std::chrono::duration<double>(epochStarts_[e + 1] -
                                                      epochStarts_[e])
                            .count());
        return seconds;
    }

  private:
    struct Slot
    {
        size_t key;
        bool edit;
    };
    std::mutex mutex_;
    std::vector<Slot> epoch_;
    std::vector<Clock::time_point> epochStarts_;
    uint64_t requests_ = 0;
    uint64_t tagBase_ = 0;
};

/** One completed (or failed) request. */
struct Record
{
    double ms = 0.0;
    char tier = 'e'; ///< 'm'em, 'd'isk, 'f'resh or 'e'rror
    bool edit = false;
    size_t key = 0;
    size_t payloadHash = 0;
};

char
tierOf(const std::string &payload)
{
    static const std::string marker = "\"cacheTier\":\"";
    if (payload.rfind("{\"type\":\"result\"", 0) != 0)
        return 'e';
    size_t at = payload.find(marker);
    if (at == std::string::npos)
        return 'e';
    char c = payload[at + marker.size()];
    return c == 'm' || c == 'd' || c == 'f' ? c : 'e';
}

bool
roundTrip(net::Connection &conn, const serve::Request &request,
          std::string &payload)
{
    return conn.sendFrame(serve::emitRequest(request)) ==
               net::IoStatus::Ok &&
           conn.recvFrame(payload, kReplyTimeoutMs, serve::maxReplyFrame) ==
               net::IoStatus::Ok;
}

/** A `longnail --serve` child process. */
class Daemon
{
  public:
    Daemon(const Args &args, const std::string &socket,
           const std::string &cache_dir)
        : socket_(socket)
    {
        std::vector<std::string> argv = {
            args.longnail,
            "--serve",
            "--socket",
            socket,
            "--cache-dir",
            cache_dir,
            "--jobs=2",
            "--mem-cache",
            std::to_string(kMemCacheEntries),
            "--idle-timeout-ms",
            "0",
        };
        std::vector<char *> raw;
        for (std::string &arg : argv)
            raw.push_back(arg.data());
        raw.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        // The daemon's own reports go to a log in the work directory.
        std::string log = cache_dir + ".log";
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        if (posix_spawn(&pid_, raw[0], &actions, nullptr, raw.data(),
                        environ) != 0)
            pid_ = -1;
        posix_spawn_file_actions_destroy(&actions);
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Wait until a ping round-trips (the daemon's readiness). */
    bool
    waitReady()
    {
        auto start = Clock::now();
        while (pid_ > 0 && secondsSince(start) < 60.0) {
            std::string error, payload;
            net::Connection conn = net::connectUnix(socket_, error);
            serve::Request ping;
            ping.kind = serve::RequestKind::Ping;
            if (conn.valid() && roundTrip(conn, ping, payload))
                return true;
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
    }

    std::string pid() const { return std::to_string(pid_); }

    /** Graceful shutdown request, then reap (SIGKILL after 30 s). */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        std::string error, payload;
        net::Connection conn = net::connectUnix(socket_, error);
        serve::Request bye;
        bye.kind = serve::RequestKind::Shutdown;
        if (!conn.valid() || !roundTrip(conn, bye, payload))
            kill(pid_, SIGTERM);
        auto start = Clock::now();
        while (waitpid(pid_, nullptr, WNOHANG) != pid_) {
            if (secondsSince(start) > 30.0) {
                kill(pid_, SIGKILL);
                waitpid(pid_, nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** Run @p body on kConnections client threads, each with its own
 * connection; a thread stops when body returns false. */
bool
onConnections(const std::string &socket,
              const std::function<bool(net::Connection &, unsigned)> &body)
{
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c)
        threads.emplace_back([&, c] {
            std::string error;
            net::Connection conn = net::connectUnix(socket, error);
            if (!conn.valid()) {
                ok = false;
                return;
            }
            try {
                while (body(conn, c)) {
                }
            } catch (const std::exception &) {
                ok = false;
            }
        });
    for (std::thread &t : threads)
        t.join();
    return ok;
}

} // namespace

Result
runServeMix(const Args &args, Tracer *tracer)
{
    Result result;
    std::vector<Key> keys = serveKeys();
    std::string socket = args.workdir + "/s.sock";
    std::string cache_dir = args.workdir + "/cache";

    // Set-up: the request inputs and a daemon start up to the first
    // answered ping. Done five times before the load (the last daemon
    // serves) and four times after it, so its median spans the run.
    Samples setup_s;
    auto set_up = [&](const std::string &dir) {
        fs::remove_all(dir);
        auto start = Clock::now();
        keys = serveKeys();
        auto started = std::make_unique<Daemon>(args, socket, dir);
        if (!started->waitReady())
            return std::unique_ptr<Daemon>();
        setup_s.add(secondsSince(start));
        return started;
    };
    std::unique_ptr<Daemon> daemon;
    for (int rep = 0; rep < 5; ++rep) {
        daemon.reset();
        daemon = set_up(cache_dir);
        if (!daemon) {
            result.attempted = 1;
            result.fail("daemon did not become ready");
            return result;
        }
    }

    // Warm-up (untimed): every key once, so the disk tier holds the
    // whole working set and repeats never compile.
    std::vector<Record> records;
    std::mutex records_mutex;
    auto record = [&](const Record &r) {
        std::lock_guard<std::mutex> lock(records_mutex);
        records.push_back(r);
    };
    auto call = [&](net::Connection &conn, size_t key, uint64_t tag) {
        std::string payload;
        auto t0 = Clock::now();
        bool ok = roundTrip(conn, compileRequest(keys[key], tag), payload);
        auto t1 = Clock::now();
        Record r;
        r.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        r.tier = ok ? tierOf(payload) : 'e';
        r.edit = tag != 0;
        r.key = key;
        r.payloadHash = std::hash<std::string>()(payload);
        if (tracer)
            tracer->record(r.tier == 'm'   ? "serve.mem"
                           : r.tier == 'd' ? "serve.disk"
                           : r.tier == 'f' ? "serve.fresh"
                                           : "serve.error",
                           keys[key].id, t0, t1);
        record(r);
        return ok;
    };
    auto warm_start = Clock::now();
    std::atomic<size_t> next_key{0};
    bool connected = onConnections(socket, [&](net::Connection &conn,
                                               unsigned) {
        size_t key = next_key++;
        return key < keys.size() && call(conn, key, 0);
    });
    double warmup_s = secondsSince(warm_start);
    std::vector<Record> warm = std::move(records);
    records.clear();

    // ping floor (traced run only)
    Samples ping_us;
    if (tracer) {
        std::string error, payload;
        net::Connection conn = net::connectUnix(socket, error);
        serve::Request ping;
        ping.kind = serve::RequestKind::Ping;
        for (int i = 0; i < 200 && conn.valid(); ++i) {
            auto t0 = Clock::now();
            if (roundTrip(conn, ping, payload))
                ping_us.add(msSince(t0) * 1000.0);
        }
    }

    // Measured closed loop. The daemon's peak RSS is read when the
    // kRssAtRequests-th measured request completes; a run too short to
    // get there goes on, untimed, until it does.
    Stream stream(args.seed, keys.size());
    std::atomic<size_t> completed{0};
    double daemon_rss_mb = 0.0;
    auto step = [&](net::Connection &conn) {
        Stream::Draw draw = stream.next();
        if (!call(conn, draw.key, draw.editTag))
            return false;
        if (++completed == kRssAtRequests)
            daemon_rss_mb = peakRssMb(daemon->pid());
        return true;
    };
    // The timed loop also runs until one whole epoch is done. One
    // connection runs the host probe between its requests.
    HostProbe probe;
    auto start = Clock::now();
    connected &= onConnections(socket, [&](net::Connection &conn,
                                           unsigned c) {
        if (c == 0)
            probe.maybeRun();
        return (secondsSince(start) < args.seconds ||
                stream.epochsStarted() < 2) &&
               step(conn);
    });
    size_t timed = records.size();
    Samples epoch_s = stream.epochSeconds();
    connected &= onConnections(socket, [&](net::Connection &conn,
                                           unsigned) {
        return completed < kRssAtRequests && step(conn);
    });
    if (!connected)
        result.fail("client connection failed");

    // Daemon-side view, then shut it down.
    double queue_wait_p95 = 0.0, shed = 0.0, served = 0.0;
    {
        std::string error, payload, perror;
        net::Connection conn = net::connectUnix(socket, error);
        serve::Request stats;
        stats.kind = serve::RequestKind::Stats;
        std::optional<serve::Reply> reply;
        if (conn.valid() && roundTrip(conn, stats, payload))
            reply = serve::parseReply(payload, perror);
        if (!reply || reply->type != "stats") {
            result.fail("stats request failed");
        } else {
            const json::Value *metrics = reply->raw.find("metrics");
            const json::Value *hist =
                metrics ? metrics->find("histograms") : nullptr;
            const json::Value *wait =
                hist ? hist->find("serve.queue_wait_ms") : nullptr;
            if (wait)
                queue_wait_p95 = wait->getNumber("p95", 0.0);
            if (const json::Value *server = reply->raw.find("server")) {
                shed = server->getNumber("shed", 0.0);
                served = server->getNumber("requests", 0.0);
            }
        }
    }
    daemon->stop();
    // (A cache directory of their own: the traced run reads the
    // serving daemon's entries below.)
    for (int rep = 0; rep < 4; ++rep)
        if (!set_up(cache_dir + "-late"))
            result.fail("daemon did not become ready");

    // Verification: in-process compiles of every key, rendered as the
    // daemon would render them for each tier.
    std::vector<driver::BatchRequest> batch;
    for (const Key &key : keys)
        batch.push_back({key.id, key.entry->source, key.entry->target,
                         key.options});
    driver::BatchOptions batch_options;
    batch_options.jobs = kConnections;
    driver::BatchResult refs = driver::compileBatch(batch, batch_options);
    std::map<std::string, const driver::BatchUnitOutcome *> by_id;
    for (const auto &unit : refs.units)
        by_id[unit.unitName] = &unit;
    double area = 0.0, makespan = 0.0;
    std::vector<std::map<char, size_t>> expected(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
        const driver::BatchUnitOutcome *ref = by_id[keys[k].id];
        if (!ref || !ref->ok || !ref->full) {
            result.fail(keys[k].id + ": in-process compile failed");
            continue;
        }
        for (char tier : {'m', 'd', 'f'}) {
            const char *name = tier == 'm' ? "mem"
                               : tier == 'd' ? "disk"
                                             : "fresh";
            expected[k][tier] = std::hash<std::string>()(
                serve::emitResultReply(ref->summary, keys[k].id, name,
                                       keys[k].id));
        }
        asic::AsicFlow flow(
            scaiev::Datasheet::forCore(keys[k].options.coreName));
        for (const auto &unit : ref->full->units) {
            area += flow.moduleAreaUm2(unit.module);
            makespan += unit.makespan;
        }
    }
    auto check = [&](const Record &r, bool warmup) {
        ++result.attempted;
        const std::string &id = keys[r.key].id;
        if (r.tier == 'e')
            return result.fail(id + ": error reply");
        if ((warmup || r.edit) != (r.tier == 'f'))
            return result.fail(id + ": answered from tier '" +
                               std::string(1, r.tier) + "'");
        auto it = expected[r.key].find(r.tier);
        if (it == expected[r.key].end() || it->second != r.payloadHash)
            result.fail(id + ": reply differs from the in-process compile");
    };
    for (const Record &r : warm)
        check(r, true);
    for (const Record &r : records)
        check(r, false);

    // Metrics over the requests of the timed loop.
    records.resize(timed);
    Samples hit, mem, disk, fresh;
    for (const Record &r : records) {
        if (r.tier == 'm' || r.tier == 'd')
            hit.add(r.ms);
        if (r.tier == 'm')
            mem.add(r.ms);
        else if (r.tier == 'd')
            disk.add(r.ms);
        else if (r.tier == 'f')
            fresh.add(r.ms);
    }
    size_t n = records.size();
    // Requests per second over the whole epochs of the timed loop, so
    // every run weighs the same mix of hits and compiles.
    double req_per_s = epoch_s.size() ? double(stream.epochSize()) *
                                            double(epoch_s.size()) /
                                            epoch_s.sum()
                                      : 0.0;
    if (!tracer) {
        // Requests of one kind (key and reply tier) do the same work.
        // The median request is a cache hit, a round trip of about
        // 0.1 ms whose median is mostly the host's thread wake-up
        // latency, so it is taken at its kind's fastest round trip;
        // the slowest kind, a fresh sqrt compile, at its median.
        std::map<std::pair<size_t, char>, Samples> kinds;
        for (const Record &r : records)
            kinds[{r.key, r.tier}].add(r.ms);
        Samples request_best;
        for (const Record &r : records)
            request_best.add(kinds[{r.key, r.tier}].quantile(0.0));
        double slowest_ms = 0.0;
        for (const auto &[kind, ms] : kinds)
            slowest_ms = std::max(slowest_ms, ms.median());
        // The JSON timings are scaled to the reference host (see
        // HostProbe); the table rows after them give them as measured.
        double host = probe.scale();
        result.add("setup_s", setup_s.median() * host, "s", setup_s.size());
        result.add("ops_per_s", req_per_s / host, "1/s", n);
        result.add("op_ms_p50", request_best.median() * host, "ms", n);
        result.add("op_ms_max", slowest_ms * host, "ms", n);
        result.add("peak_rss_mb", daemon_rss_mb, "MB");
        result.add("qor_area_um2", area, "um2", keys.size());
        result.add("qor_makespan_stages", makespan, "stages", keys.size());
        result.add("req_per_s", req_per_s, "1/s", n);
        result.add("hit_ms_p50", hit.quantile(0.5), "ms", hit.size());
        result.add("hit_ms_p99", hit.quantile(0.99), "ms", hit.size());
        result.add("fresh_ms_p50", fresh.quantile(0.5), "ms",
                   fresh.size());
        result.add("fresh_ms_p95", fresh.quantile(0.95), "ms",
                   fresh.size());
        result.add("warmup_s", warmup_s, "s", warm.size());
        result.add("epoch_s_p50", epoch_s.median(), "s", epoch_s.size());
        result.add("host_probe_ms", probe.ms().median(), "ms",
                   probe.ms().size());
        return result;
    }
    Samples cache_load_ms;
    for (const Key &key : keys) {
        driver::CompileSummary summary;
        std::string cache_key = driver::cacheKey(
            key.entry->source, key.entry->target, key.options);
        auto t0 = Clock::now();
        driver::CacheLookup lookup =
            driver::cacheLoad(cache_dir, cache_key, summary);
        cache_load_ms.add(msSince(t0));
        ++result.attempted;
        if (lookup != driver::CacheLookup::Hit)
            result.fail(key.id + ": not in the daemon's disk cache");
    }
    result.add("serve.ping_us", ping_us.median(), "us", ping_us.size());
    result.add("serve.req_per_s", req_per_s, "1/s", n);
    result.add("serve.hit_ms_p50", hit.quantile(0.5), "ms", hit.size());
    result.add("serve.hit_ms_p99", hit.quantile(0.99), "ms", hit.size());
    result.add("serve.fresh_ms_p50", fresh.quantile(0.5), "ms",
               fresh.size());
    result.add("serve.fresh_ms_p95", fresh.quantile(0.95), "ms",
               fresh.size());
    result.add("serve.mem_hit_ratio", double(mem.size()) / double(n),
               "ratio", n);
    result.add("serve.disk_hit_ratio", double(disk.size()) / double(n),
               "ratio", n);
    result.add("serve.mem_hit_ms_p50", mem.quantile(0.5), "ms",
               mem.size());
    result.add("serve.disk_hit_ms_p50", disk.quantile(0.5), "ms",
               disk.size());
    result.add("driver.cache_load_ms", cache_load_ms.quantile(0.5), "ms",
               cache_load_ms.size());
    result.add("serve.queue_wait_ms_p95", queue_wait_p95, "ms");
    result.add("serve.admit_ratio",
               served > 0.0 ? (served - shed) / served : 0.0, "ratio",
               size_t(served));
    return result;
}

} // namespace perfbench
