/// @file workloads.cpp
/// @brief The three workloads, the timing harness they share, and the
/// reduction of their samples to metrics.
///
/// Method (every workload): 4 ranks. A sample is a batch of operations of
/// one mix slot on one side (KaMPIng bindings or the plain MPI_* twin),
/// opened and closed by MPI_Barrier. Its time is the maximum over ranks of
/// the batch's wall time, divided by the operations in the batch. A round
/// visits every slot on both sides, alternating which side goes first; runs
/// are whole rounds, so every run attempts the same mix. One warm-up round
/// runs before the timed phase and counts in setup_s only.
/// Config::compute_scale is 0, so the virtual clock prices communication
/// only and repeats exactly.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <barrier>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>
#include <stdexcept>

#include "apps/bfs/bfs_kamping.hpp"
#include "apps/bfs/bfs_mpi.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "kagen/kagen.hpp"
#include "kamping/kamping.hpp"
#include "src/xmpi/internal.hpp"
#include "src/xmpi/sim/sim.hpp"
#include "src/xmpi/topo/topo.hpp"
#include "trace.hpp"
#include "xmpi/xmpi.hpp"

namespace perfbench {
namespace {

namespace alg = xmpi::detail::alg;
namespace sim = xmpi::detail::sim;
using trace::Side;
using U64 = std::uint64_t;
using Vec = std::vector<U64>;

constexpr int kRanks = 4;

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    double const pos = q * static_cast<double>(v.size() - 1);
    auto const lo = static_cast<std::size_t>(pos);
    std::size_t const hi = std::min(lo + 1, v.size() - 1);
    double const frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// ---------------------------------------------------------------------------
// Substrate counters, read through the pvar registry at the timed phase's
// start and end on every rank.
// ---------------------------------------------------------------------------

enum Pv : int {
    pv_p2p_messages,
    pv_coll_messages,
    pv_p2p_bytes,
    pv_coll_bytes,
    pv_intra_bytes,
    pv_builds,
    pv_hits,
    pv_shm_copies,
    pv_shm_bytes,
    pv_wait_ns,
    pv_peak_scratch,
    kPvs
};
constexpr char const* kPvNames[kPvs] = {
    "counters.p2p_messages",    "counters.coll_messages",     "counters.p2p_bytes",
    "counters.coll_bytes",      "counters.intra_node_bytes",  "counters.schedule_builds",
    "counters.schedule_cache_hits", "counters.shm_copies",    "counters.shm_copy_bytes",
    "p2p.wait_time_ns",         "counters.schedule_peak_scratch_bytes.max",
};

struct PvSnap {
    U64 v[kPvs] = {};
};

PvSnap read_pvars() {
    static std::once_flag once;
    static int index[kPvs];
    std::call_once(once, [] {
        std::fill(std::begin(index), std::end(index), -1);
        int num = 0;
        XMPI_T_pvar_num(&num);
        for (int i = 0; i < num; ++i) {
            char name[128];
            int count = 0;
            if (XMPI_T_pvar_name(i, name, sizeof name, &count) != MPI_SUCCESS) continue;
            for (int k = 0; k < kPvs; ++k) {
                if (std::strcmp(name, kPvNames[k]) == 0) index[k] = i;
            }
        }
    });
    PvSnap s;
    for (int k = 0; k < kPvs; ++k) {
        if (index[k] < 0) throw std::runtime_error(std::string("missing pvar ") + kPvNames[k]);
        unsigned long long v = 0;
        int count = 1;
        if (XMPI_T_pvar_read(index[k], &v, &count) != MPI_SUCCESS) {
            throw std::runtime_error(std::string("cannot read pvar ") + kPvNames[k]);
        }
        s.v[k] = v;
    }
    return s;
}

// ---------------------------------------------------------------------------
// Shared harness state. Ranks are threads of this process, so the benchmark
// synchronizes them with its own barrier (never the substrate's) wherever it
// must agree on something outside the measured operations.
// ---------------------------------------------------------------------------

struct RankLog {
    std::vector<double> wall;  ///< seconds, per sample
    std::vector<double> vt;    ///< virtual seconds before the closing barrier
    std::vector<std::uint8_t> side;
    std::vector<std::uint32_t> nops;
    std::vector<int> round;
    std::vector<int> slot;
    std::vector<std::uint8_t> timed;  ///< 0 for warm-up samples
    /// Rank 0 reads the process CPU clock around every sample; `cpu` sums
    /// the recorded samples' windows, so the benchmark's own checks and
    /// input preparation between samples are not charged to the operations.
    bool reads_cpu = false;
    double cpu = 0.0;
    /// Bit i set: operation i of the current sample failed on this rank.
    U64 fail_mask = 0;
    std::vector<U64> fails;  ///< fail_mask per sample
    U64 wrong = 0;
    std::string why;  ///< first failed check
    PvSnap pv0, pv1;
    Clock::time_point entered;
    std::vector<double> levels;  ///< bfs: levels of each recorded kamping traversal
    double generate_s = 0.0;
    double select_ns = 0.0;

    void fail_check(std::string const& what) {
        if (wrong++ == 0) why = what;
    }
};

struct Board {
    struct Phase {
        Board* b;
        void operator()() noexcept { b->on_phase(); }
    };

    explicit Board(double seconds_) : seconds(seconds_), sync(kRanks, Phase{this}), data(kRanks) {}

    /// Completion of `sync`: the first one opens the timed phase, every later
    /// one (at a round's end) closes it once the deadline has passed.
    void on_phase() {
        auto const t = Clock::now();
        if (!started) {
            started = true;
            timed_start = t;
            deadline = t + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        } else if (t >= deadline) {
            stop = true;
        }
    }

    double seconds;
    std::barrier<Phase> sync;
    std::barrier<> data;
    bool started = false;
    bool stop = false;
    Clock::time_point timed_start, deadline;
    RankLog logs[kRanks];
    std::vector<std::string> slot_names;
    /// bfs: every rank's levels, published for the validation step.
    std::vector<std::size_t> const* dist[kRanks] = {};
    std::size_t levels[kRanks] = {};
};

/// Runs `warm_rounds` warm-up rounds over the first `warm_slots` slots, then
/// timed rounds over every slot until the deadline. Warm-up samples are kept
/// apart and reported only as the warm-up effect.
template <typename W>
void drive(W& w, Board& b, RankLog& log, int warm_rounds, int warm_slots) {
    if (&log == &b.logs[0]) {
        for (int slot = 0; slot < w.slots(); ++slot) b.slot_names.push_back(w.slot_name(slot));
    }
    auto round_fn = [&](int round, int slots, bool timed) {
        for (int slot = 0; slot < slots; ++slot) {
            for (int k = 0; k < trace::kSides; ++k) {
                Side const side = (round + slot + k) % 2 == 0 ? Side::kamping : Side::raw;
                w.prepare(slot, side, round);
                MPI_Barrier(MPI_COMM_WORLD);
                double const cpu0 = log.reads_cpu ? cpu_seconds() : 0.0;
                double const v0 = xmpi::vtime_now();
                auto const t0 = Clock::now();
                std::uint32_t const n = w.run(slot, side, round, log);
                double const v1 = xmpi::vtime_now();
                MPI_Barrier(MPI_COMM_WORLD);
                auto const t1 = Clock::now();
                double const cpu1 = log.reads_cpu ? cpu_seconds() : 0.0;
                w.verify(slot, side, round, log);
                log.fails.push_back(std::exchange(log.fail_mask, 0));
                log.wall.push_back(secs(t1 - t0));
                log.vt.push_back(v1 - v0);
                log.side.push_back(static_cast<std::uint8_t>(side));
                log.nops.push_back(n);
                log.round.push_back(round);
                log.slot.push_back(slot);
                log.timed.push_back(timed);
                if (timed) log.cpu += cpu1 - cpu0;
            }
        }
    };
    int round = 0;
    for (; round < warm_rounds; ++round) round_fn(round, warm_slots, false);
    b.sync.arrive_and_wait();
    log.pv0 = read_pvars();
    trace::set_active(true);
    for (;;) {
        round_fn(round++, w.slots(), true);
        b.sync.arrive_and_wait();
        if (b.stop) break;
    }
    trace::set_active(false);
    log.pv1 = read_pvars();
}

/// Runs operation `i` of a sample inside its op span, recording an error
/// code or exception as a failure of that operation on this rank.
template <typename F>
void timed_op(Side side, RankLog& log, int i, F&& op) {
    U64 const bit = U64{1} << i;
    try {
        trace::OpSpan span(side);
        if (op() != MPI_SUCCESS) log.fail_mask |= bit;
    } catch (std::exception const&) {
        log.fail_mask |= bit;
    }
}

/// Overwrites a result buffer the benchmark does not own (a persistent
/// handle's bound receive buffer) before the next occurrence.
void poison_view(Vec const& v) {
    std::fill(const_cast<U64*>(v.data()), const_cast<U64*>(v.data()) + v.size(), kPoison);
}

std::vector<Block> concat_blocks(U64 seed, int slot, std::vector<std::size_t> const& counts,
                                 std::vector<U64> const& firsts) {
    std::vector<Block> blocks;
    for (int r = 0; r < kRanks; ++r) {
        blocks.push_back(Block{lin(seed, r, slot), firsts[static_cast<std::size_t>(r)],
                               counts[static_cast<std::size_t>(r)]});
    }
    return blocks;
}

std::vector<Lin> all_inputs(U64 seed, int slot) {
    std::vector<Lin> v;
    for (int r = 0; r < kRanks; ++r) v.push_back(lin(seed, r, slot));
    return v;
}

using PersistentAllreduce = decltype(std::declval<kamping::Communicator const&>().allreduce_init(
    kamping::send_buf(std::declval<Vec&>()), kamping::op(std::plus<>{})));

// ---------------------------------------------------------------------------
// small_coll: latency-bound mix of 1-64-element uint64 collectives on a flat
// topology; 64 operations per sample. Each operation writes the same output
// buffer of its slot, as an application's repeated call would: the schedule
// cache keys on buffer addresses, and one output per operation of a batch
// dropped its hit ratio from 0.93 to 0.14. So the output is poisoned before
// and checked right after each operation, inside the sample; both sides pay
// the same small cost (see README).
// ---------------------------------------------------------------------------

class SmallColl {
public:
    enum Slot : int {
        allreduce1,
        bcast8,
        allgather1,
        allgatherv,
        alltoall4,
        barrier,
        iallreduce16,
        persistent64,
        kSlots
    };
    static constexpr int kBatch = 64;

    SmallColl(U64 seed, int rank) : seed_(seed), rank_(rank) {
        auto make = [&](int slot, std::size_t in_n, std::size_t out_n) {
            in_[slot].resize(in_n);
            fill(in_[slot].data(), in_n, lin(seed, rank, slot));
            out_[slot].assign(out_n, kPoison);
        };
        std::vector<std::size_t> counts(kRanks);
        for (int r = 0; r < kRanks; ++r) counts[static_cast<std::size_t>(r)] = gv_count(r);
        make(allreduce1, 1, 1);
        make(bcast8, 0, 8);
        make(allgather1, 1, kRanks);
        make(allgatherv, gv_count(rank), 0);
        make(alltoall4, 4 * kRanks, 4 * kRanks);
        make(iallreduce16, 16, 0);
        make(persistent64, 64, 64);

        sums_[allreduce1] = all_inputs(seed, allreduce1);
        sums_[iallreduce16] = all_inputs(seed, iallreduce16);
        sums_[persistent64] = all_inputs(seed, persistent64);
        blocks_[allgather1] = concat_blocks(seed, allgather1, std::vector<std::size_t>(kRanks, 1),
                                            std::vector<U64>(kRanks, 0));
        blocks_[allgatherv] =
            concat_blocks(seed, allgatherv, counts, std::vector<U64>(kRanks, 0));
        blocks_[alltoall4] = concat_blocks(seed, alltoall4, std::vector<std::size_t>(kRanks, 4),
                                           std::vector<U64>(kRanks, static_cast<U64>(4 * rank)));
        for (int root = 0; root < kRanks; ++root) {
            bcast_blocks_[root] = {Block{lin(seed, root, bcast8), 0, 8}};
        }
        persistent_.emplace(comm_.allreduce_init(kamping::send_buf(in_[persistent64]),
                                                 kamping::op(std::plus<>{})));
        MPI_Allreduce_init(in_[persistent64].data(), out_[persistent64].data(), 64, MPI_UINT64_T,
                           MPI_SUM, MPI_COMM_WORLD, 0, &raw_persistent_);
    }

    ~SmallColl() {
        if (raw_persistent_ != MPI_REQUEST_NULL) MPI_Request_free(&raw_persistent_);
    }
    SmallColl(SmallColl const&) = delete;
    SmallColl& operator=(SmallColl const&) = delete;

    int slots() const { return kSlots; }
    static std::string slot_name(int slot) {
        static char const* const names[kSlots] = {"allreduce1", "bcast8",       "allgather1",
                                                  "allgatherv", "alltoall4",    "barrier",
                                                  "iallreduce16", "persistent64"};
        return names[slot];
    }
    void prepare(int, Side, int) {}

    std::uint32_t run(int slot, Side side, int round, RankLog& log) {
        int const root = round % kRanks;
        for (int i = 0; i < kBatch; ++i) {
            std::fill(out_[slot].begin(), out_[slot].end(), kPoison);
            if (slot == bcast8 && rank_ == root) {
                fill(out_[bcast8].data(), 8, lin(seed_, root, bcast8));
            }
            if (slot == persistent64 && side == Side::kamping) poison_view(persistent_->view());
            timed_op(side, log, i, [&] {
                return side == Side::kamping ? kamping_op(slot, root) : raw_op(slot, root);
            });
            if (!check(slot, side, root)) {
                log.fail_check("small_coll " + slot_name(slot) +
                               (side == Side::kamping ? " kamping" : " raw"));
            }
        }
        return kBatch;
    }

    void verify(int, Side, int, RankLog&) {}

private:
    std::size_t gv_count(int r) const { return 1 + gen(seed_, 3, static_cast<U64>(r)) % 16; }

    int kamping_op(int slot, int root) {
        using namespace kamping;
        switch (slot) {
            case allreduce1:
                comm_.allreduce(send_buf(in_[slot]), recv_buf(out_[slot]), op(std::plus<>{}));
                break;
            case bcast8:
                comm_.bcast(send_recv_buf(out_[slot]), send_recv_count(8), kamping::root(root));
                break;
            case allgather1:
                comm_.allgather(send_buf(in_[slot]), recv_buf(out_[slot]));
                break;
            case allgatherv:
                result_ = comm_.allgatherv(send_buf(in_[slot]));
                break;
            case alltoall4:
                comm_.alltoall(send_buf(in_[slot]), recv_buf(out_[slot]));
                break;
            case barrier:
                comm_.barrier();
                break;
            case iallreduce16:
                result_ = comm_.iallreduce(send_buf(in_[slot]), op(std::plus<>{})).wait();
                break;
            case persistent64:
                persistent_->start();
                persistent_->wait();
                break;
        }
        return MPI_SUCCESS;
    }

    int raw_op(int slot, int root) {
        MPI_Comm const comm = MPI_COMM_WORLD;
        Vec& in = in_[slot];
        Vec& out = out_[slot];
        switch (slot) {
            case allreduce1:
                return MPI_Allreduce(in.data(), out.data(), 1, MPI_UINT64_T, MPI_SUM, comm);
            case bcast8:
                return MPI_Bcast(out.data(), 8, MPI_UINT64_T, root, comm);
            case allgather1:
                return MPI_Allgather(in.data(), 1, MPI_UINT64_T, out.data(), 1, MPI_UINT64_T, comm);
            case allgatherv: {
                int const mine = static_cast<int>(in.size());
                std::vector<int> counts(kRanks), displs(kRanks);
                int rc = MPI_Allgather(&mine, 1, MPI_INT, counts.data(), 1, MPI_INT, comm);
                if (rc != MPI_SUCCESS) return rc;
                std::exclusive_scan(counts.begin(), counts.end(), displs.begin(), 0);
                Vec result(static_cast<std::size_t>(displs.back() + counts.back()));
                rc = MPI_Allgatherv(in.data(), mine, MPI_UINT64_T, result.data(), counts.data(),
                                    displs.data(), MPI_UINT64_T, comm);
                result_ = std::move(result);
                return rc;
            }
            case alltoall4:
                return MPI_Alltoall(in.data(), 4, MPI_UINT64_T, out.data(), 4, MPI_UINT64_T, comm);
            case barrier:
                return MPI_Barrier(comm);
            case iallreduce16: {
                Vec result(16);
                MPI_Request req = MPI_REQUEST_NULL;
                int rc = MPI_Iallreduce(in.data(), result.data(), 16, MPI_UINT64_T, MPI_SUM, comm,
                                        &req);
                if (rc == MPI_SUCCESS) rc = MPI_Wait(&req, MPI_STATUS_IGNORE);
                result_ = std::move(result);
                return rc;
            }
            case persistent64: {
                int rc = MPI_Start(&raw_persistent_);
                if (rc == MPI_SUCCESS) rc = MPI_Wait(&raw_persistent_, MPI_STATUS_IGNORE);
                return rc;
            }
        }
        return MPI_ERR_ARG;
    }

    bool check(int slot, Side side, int root) {
        switch (slot) {
            case allreduce1:
                return check_sum(out_[slot].data(), 1, sums_[slot]);
            case bcast8:
                return check_blocks(out_[slot].data(), 8, bcast_blocks_[root]);
            case allgather1:
            case alltoall4:
                return check_blocks(out_[slot].data(), out_[slot].size(), blocks_[slot]);
            case allgatherv: {
                bool const ok = check_blocks(result_.data(), result_.size(), blocks_[slot]);
                result_.clear();
                return ok;
            }
            case barrier:
                return true;
            case iallreduce16: {
                bool const ok = result_.size() == 16 && check_sum(result_.data(), 16, sums_[slot]);
                result_.clear();
                return ok;
            }
            case persistent64: {
                Vec const& v = side == Side::kamping ? persistent_->view() : out_[slot];
                return v.size() == 64 && check_sum(v.data(), 64, sums_[slot]);
            }
        }
        return false;
    }

    U64 seed_;
    int rank_;
    kamping::Communicator comm_;
    Vec in_[kSlots], out_[kSlots];
    Vec result_;
    std::vector<Lin> sums_[kSlots];
    std::vector<Block> blocks_[kSlots];
    std::vector<Block> bcast_blocks_[kRanks];
    std::optional<PersistentAllreduce> persistent_;
    MPI_Request raw_persistent_ = MPI_REQUEST_NULL;
};

// ---------------------------------------------------------------------------
// bulk_hier: bandwidth-bound collectives on 2 nodes x 2 ranks, 256 KiB -
// 1 MiB per buffer; one operation per sample, checked after the closing
// barrier.
// ---------------------------------------------------------------------------

class BulkHier {
public:
    enum Slot : int { allreduce, allgather, bcast, alltoall, alltoallv, persistent, kSlots };
    /// Elements per slot: allreduce/bcast/persistent the whole vector,
    /// allgather the per-rank block, alltoall the per-pair block. Every
    /// buffer is 256 KiB - 1 MiB, so a rank's working set stays within its
    /// share of the cache: with 4 MiB buffers the runs streamed through a
    /// memory system shared with other machines' tenants, and their medians
    /// moved by 18% (quartile distance) from run to run.
    static constexpr std::size_t kCount[kSlots] = {128 * 1024, 32 * 1024, 128 * 1024,
                                                   32 * 1024,  0,         128 * 1024};

    BulkHier(U64 seed, int rank) : seed_(seed), rank_(rank) {
        auto r_ = static_cast<std::size_t>(rank);
        // alltoallv: counts[s][d] elements from s to d, 192-320 KiB.
        for (int s = 0; s < kRanks; ++s) {
            for (int d = 0; d < kRanks; ++d) {
                v_counts_[s][d] = static_cast<int>(24 * 1024 + gen(seed, 4, static_cast<U64>(s),
                                                                    static_cast<U64>(d)) %
                                                                    (16 * 1024));
            }
        }
        for (int d = 0; d < kRanks; ++d) {
            sc_.push_back(v_counts_[rank][d]);
            rc_.push_back(v_counts_[d][rank]);
        }
        sd_.resize(kRanks);
        rd_.resize(kRanks);
        std::exclusive_scan(sc_.begin(), sc_.end(), sd_.begin(), 0);
        std::exclusive_scan(rc_.begin(), rc_.end(), rd_.begin(), 0);

        auto make = [&](int slot, std::size_t in_n, std::size_t out_n) {
            in_[slot].resize(in_n);
            fill(in_[slot].data(), in_n, lin(seed, rank, slot));
            out_[slot].assign(out_n, kPoison);
        };
        make(allreduce, kCount[allreduce], kCount[allreduce]);
        make(allgather, kCount[allgather], kCount[allgather] * kRanks);
        make(bcast, 0, kCount[bcast]);
        make(alltoall, kCount[alltoall] * kRanks, kCount[alltoall] * kRanks);
        make(alltoallv, static_cast<std::size_t>(sd_.back() + sc_.back()),
             static_cast<std::size_t>(rd_.back() + rc_.back()));
        make(persistent, kCount[persistent], kCount[persistent]);

        sums_[allreduce] = all_inputs(seed, allreduce);
        sums_[persistent] = all_inputs(seed, persistent);
        blocks_[allgather] =
            concat_blocks(seed, allgather, std::vector<std::size_t>(kRanks, kCount[allgather]),
                          std::vector<U64>(kRanks, 0));
        blocks_[alltoall] = concat_blocks(
            seed, alltoall, std::vector<std::size_t>(kRanks, kCount[alltoall]),
            std::vector<U64>(kRanks, static_cast<U64>(kCount[alltoall]) * r_));
        std::vector<std::size_t> counts;
        std::vector<U64> firsts;
        for (int s = 0; s < kRanks; ++s) {
            counts.push_back(static_cast<std::size_t>(v_counts_[s][rank]));
            int first = 0;
            for (int d = 0; d < rank; ++d) first += v_counts_[s][d];
            firsts.push_back(static_cast<U64>(first));
        }
        blocks_[alltoallv] = concat_blocks(seed, alltoallv, counts, firsts);

        persistent_.emplace(comm_.allreduce_init(kamping::send_buf(in_[persistent]),
                                                 kamping::op(std::plus<>{})));
        MPI_Allreduce_init(in_[persistent].data(), out_[persistent].data(),
                           static_cast<int>(kCount[persistent]), MPI_UINT64_T, MPI_SUM,
                           MPI_COMM_WORLD, 0, &raw_persistent_);
    }

    ~BulkHier() {
        if (raw_persistent_ != MPI_REQUEST_NULL) MPI_Request_free(&raw_persistent_);
    }
    BulkHier(BulkHier const&) = delete;
    BulkHier& operator=(BulkHier const&) = delete;

    int slots() const { return kSlots; }
    static std::string slot_name(int slot) {
        static char const* const names[kSlots] = {"allreduce", "allgather", "bcast",
                                                  "alltoall",  "alltoallv", "persistent"};
        return names[slot];
    }

    void prepare(int slot, Side side, int round) {
        Vec& out = out_[slot];
        int const root = round % kRanks;
        if (slot == bcast && rank_ == root) {
            fill(out.data(), out.size(), lin(seed_, root, bcast));
        } else if (slot == persistent && side == Side::kamping) {
            poison_view(persistent_->view());
        } else {
            std::fill(out.begin(), out.end(), kPoison);
        }
    }

    std::uint32_t run(int slot, Side side, int round, RankLog& log) {
        int const root = round % kRanks;
        timed_op(side, log, 0, [&] {
            return side == Side::kamping ? kamping_op(slot, root) : raw_op(slot, root);
        });
        return 1;
    }

    void verify(int slot, Side side, int round, RankLog& log) {
        int const root = round % kRanks;
        Vec const& out = slot == persistent && side == Side::kamping ? persistent_->view()
                                                                      : out_[slot];
        bool ok = false;
        switch (slot) {
            case allreduce:
            case persistent:
                ok = out.size() == kCount[slot] && check_sum(out.data(), out.size(), sums_[slot]);
                break;
            case bcast:
                ok = check_blocks(out.data(), out.size(),
                                  {Block{lin(seed_, root, bcast), 0, kCount[bcast]}});
                break;
            default:
                ok = check_blocks(out.data(), out.size(), blocks_[slot]);
        }
        if (!ok) {
            log.fail_check("bulk_hier " + slot_name(slot) +
                           (side == Side::kamping ? " kamping" : " raw"));
        }
    }

private:
    int kamping_op(int slot, int root) {
        using namespace kamping;
        switch (slot) {
            case allreduce:
                comm_.allreduce(send_buf(in_[slot]), recv_buf(out_[slot]), op(std::plus<>{}));
                break;
            case allgather:
                comm_.allgather(send_buf(in_[slot]), recv_buf(out_[slot]));
                break;
            case bcast:
                comm_.bcast(send_recv_buf(out_[slot]),
                            send_recv_count(static_cast<int>(kCount[bcast])), kamping::root(root));
                break;
            case alltoall:
                comm_.alltoall(send_buf(in_[slot]), recv_buf(out_[slot]));
                break;
            case alltoallv:
                comm_.alltoallv(send_buf(in_[slot]), send_counts(sc_), recv_counts(rc_),
                                recv_buf(out_[slot]));
                break;
            case persistent:
                persistent_->start();
                persistent_->wait();
                break;
        }
        return MPI_SUCCESS;
    }

    int raw_op(int slot, int root) {
        MPI_Comm const comm = MPI_COMM_WORLD;
        Vec& in = in_[slot];
        Vec& out = out_[slot];
        int const n = static_cast<int>(kCount[slot]);
        switch (slot) {
            case allreduce:
                return MPI_Allreduce(in.data(), out.data(), n, MPI_UINT64_T, MPI_SUM, comm);
            case allgather:
                return MPI_Allgather(in.data(), n, MPI_UINT64_T, out.data(), n, MPI_UINT64_T, comm);
            case bcast:
                return MPI_Bcast(out.data(), n, MPI_UINT64_T, root, comm);
            case alltoall:
                return MPI_Alltoall(in.data(), n, MPI_UINT64_T, out.data(), n, MPI_UINT64_T, comm);
            case alltoallv:
                return MPI_Alltoallv(in.data(), sc_.data(), sd_.data(), MPI_UINT64_T, out.data(),
                                     rc_.data(), rd_.data(), MPI_UINT64_T, comm);
            case persistent: {
                int rc = MPI_Start(&raw_persistent_);
                if (rc == MPI_SUCCESS) rc = MPI_Wait(&raw_persistent_, MPI_STATUS_IGNORE);
                return rc;
            }
        }
        return MPI_ERR_ARG;
    }

    U64 seed_;
    int rank_;
    kamping::Communicator comm_;
    int v_counts_[kRanks][kRanks] = {};
    std::vector<int> sc_, rc_, sd_, rd_;
    Vec in_[kSlots], out_[kSlots];
    std::vector<Lin> sums_[kSlots];
    std::vector<Block> blocks_[kSlots];
    std::optional<PersistentAllreduce> persistent_;
    MPI_Request raw_persistent_ = MPI_REQUEST_NULL;
};

// ---------------------------------------------------------------------------
// bfs_rgg: the paper's Fig. 9 BFS on an RGG-2D graph; one traversal per
// sample, validated after the closing barrier through the benchmark's own
// shared memory.
// ---------------------------------------------------------------------------

class BfsRgg {
public:
    static constexpr std::uint64_t kVerticesPerRank = std::uint64_t{1} << 14;
    static constexpr double kAvgDegree = 16.0;  // 2^17 undirected edges per rank
    static constexpr int kSources = 32;

    BfsRgg(U64 seed, int rank, Board& board, RankLog& log)
        : rank_(rank), board_(board) {
        // The generator needs no communication. The parts are generated one
        // rank at a time: run concurrently, the peak memory of the run moved
        // between 28 and 33 MiB with how the four generations overlapped.
        kamping::Communicator comm;
        for (int r = 0; r < kRanks; ++r) {
            if (r == rank) {
                auto const t0 = Clock::now();
                graph_ = kagen::generate_rgg2d(comm, kVerticesPerRank, kAvgDegree, seed);
                log.generate_s = secs(Clock::now() - t0);
            }
            board_.data.arrive_and_wait();
        }
        for (int i = 0; i < kSources; ++i) {
            sources_.push_back(gen(seed, 5, static_cast<U64>(i)) % graph_.global_n);
        }
    }

    int slots() const { return kSources; }
    static std::string slot_name(int) { return "traversal"; }
    void prepare(int, Side, int) {}

    std::uint32_t run(int slot, Side side, int, RankLog& log) {
        U64 const s = sources_[static_cast<std::size_t>(slot)];
        timed_op(side, log, 0, [&] {
            dist_ = side == Side::kamping ? apps::bfs::kamping_impl::bfs(graph_, s, MPI_COMM_WORLD)
                                          : apps::bfs::mpi::bfs(graph_, s, MPI_COMM_WORLD);
            return MPI_SUCCESS;
        });
        return 1;
    }

    void verify(int slot, Side side, int, RankLog& log) {
        board_.dist[rank_] = &dist_;
        board_.data.arrive_and_wait();
        U64 const vpr = graph_.vertices_per_rank;
        auto level = [&](U64 v) -> std::size_t {
            auto const owner = static_cast<std::size_t>(v / vpr);
            if (owner >= kRanks) return 0;  // out of range: fails the checks
            auto const& d = *board_.dist[owner];
            std::size_t const lv = static_cast<std::size_t>(v - owner * vpr);
            if (lv >= d.size()) return 0;
            std::size_t const x = d[lv];
            return x == apps::bfs::undef ? kUnreached : x;
        };
        std::size_t levels = 0;
        bool const ok = dist_.size() == graph_.local_n() &&
                        check_bfs_part(graph_.first_vertex, graph_.xadj, graph_.adjncy,
                                       sources_[static_cast<std::size_t>(slot)], level, &levels);
        board_.levels[rank_] = levels;
        board_.data.arrive_and_wait();
        if (!ok) {
            log.fail_check("bfs_rgg source " + std::to_string(slot) +
                           (side == Side::kamping ? " kamping" : " raw"));
        }
        if (side == Side::kamping) {
            log.levels.push_back(static_cast<double>(
                *std::max_element(std::begin(board_.levels), std::end(board_.levels))));
        }
        board_.data.arrive_and_wait();  // levels read before the next overwrite
    }

private:
    int rank_;
    Board& board_;
    kagen::Graph graph_;
    std::vector<U64> sources_;
    std::vector<std::size_t> dist_;
};

// ---------------------------------------------------------------------------
// Workload table and metric reduction.
// ---------------------------------------------------------------------------

struct SelectProbe {
    alg::Family family;
    std::size_t bytes;
};

/// (family, bytes) pairs that the mix hands to alg::select.
std::vector<SelectProbe> select_probes(std::string const& w) {
    using F = alg::Family;
    if (w == "small_coll") {
        return {{F::allreduce, 8},  {F::bcast, 64},       {F::allgather, 8},
                {F::alltoall, 32}, {F::allreduce, 128}, {F::allreduce, 512}};
    }
    if (w == "bulk_hier") {
        auto bytes = [](int slot) { return BulkHier::kCount[slot] * sizeof(U64); };
        return {{F::allreduce, bytes(BulkHier::allreduce)},
                {F::allgather, bytes(BulkHier::allgather)},
                {F::bcast, bytes(BulkHier::bcast)},
                {F::alltoall, bytes(BulkHier::alltoall)},
                {F::allreduce, bytes(BulkHier::persistent)}};
    }
    return {{F::allreduce, 1}, {F::alltoall, 4}};
}

/// Mean ns per alg::select call over the workload's probes (rank 0).
double time_select(std::string const& w) {
    MPI_Comm const comm = xmpi::detail::resolve(MPI_COMM_WORLD);
    auto const probes = select_probes(w);
    constexpr int kReps = 2000;
    double total = 0.0;
    int sink = 0;
    for (auto const& p : probes) {
        auto const t0 = Clock::now();
        for (int i = 0; i < kReps; ++i) sink += alg::select(p.family, comm, p.bytes, true);
        total += secs(Clock::now() - t0) * 1e9 / kReps;
    }
    if (sink < 0) throw std::logic_error("negative algorithm index");
    return total / static_cast<double>(probes.size());
}

/// The bulk_hier operations that the simulator can price (it has no v- or
/// persistent families; a persistent allreduce prices as its blocking twin).
std::vector<sim::CollSpec> bulk_specs(int root) {
    std::vector<sim::CollSpec> specs;
    auto add = [&](alg::Family f, std::size_t count) {
        sim::CollSpec s;
        s.family = f;
        s.count = static_cast<int>(count);
        s.elem_size = 8;
        s.root = root;
        specs.push_back(s);
    };
    add(alg::Family::allreduce, BulkHier::kCount[BulkHier::allreduce]);
    add(alg::Family::allgather, BulkHier::kCount[BulkHier::allgather]);
    add(alg::Family::bcast, BulkHier::kCount[BulkHier::bcast]);
    add(alg::Family::alltoall, BulkHier::kCount[BulkHier::alltoall]);
    return specs;
}

xmpi::Config workload_config(std::string const& w) {
    xmpi::Config cfg;
    cfg.compute_scale = 0.0;
    if (w == "bulk_hier") cfg.ranks_per_node = 2;
    return cfg;
}

sim::World sim_world(int p, xmpi::Config const& cfg) {
    sim::World world;
    world.size = p;
    world.node_map = xmpi::detail::topo::block_map(p, cfg.ranks_per_node);
    world.cfg = cfg;
    return world;
}

/// bulk_hier's independent pricing check: each simulable family runs one
/// isolated operation in a fresh universe, on both sides, and every rank's
/// virtual finish time must equal sim::simulate's within 1e-9 relative.
void check_against_simulator(U64 seed, Outcome& out) {
    xmpi::Config const cfg = workload_config("bulk_hier");
    int const root = static_cast<int>(seed % kRanks);
    for (auto const& spec : bulk_specs(root)) {
        sim::Options sopt;
        sopt.keep_finish = true;
        sim::Result const res = sim::simulate(sim_world(kRanks, cfg), spec, sopt);
        for (int k = 0; k < trace::kSides; ++k) {
            bool const use_kamping = k == 0;
            std::string const what = std::string("simulator check ") +
                                     alg::family_name(spec.family) +
                                     (use_kamping ? " kamping" : " raw");
            if (res.error != MPI_SUCCESS) {
                out.correct = false;
                out.errors.push_back(what + ": " + res.detail);
                continue;
            }
            auto const run = xmpi::run(
                kRanks,
                [&](int) {
                    using namespace kamping;
                    Communicator comm;
                    auto const n = static_cast<std::size_t>(spec.count);
                    Vec send(spec.family == alg::Family::alltoall ? n * kRanks : n, 1);
                    Vec recv(spec.family == alg::Family::allreduce ? n : n * kRanks, 0);
                    int const c = spec.count;
                    switch (spec.family) {
                        case alg::Family::allreduce:
                            if (use_kamping) {
                                comm.allreduce(send_buf(send), recv_buf(recv), op(std::plus<>{}));
                            } else {
                                MPI_Allreduce(send.data(), recv.data(), c, MPI_UINT64_T, MPI_SUM,
                                              MPI_COMM_WORLD);
                            }
                            break;
                        case alg::Family::allgather:
                            if (use_kamping) {
                                comm.allgather(send_buf(send), recv_buf(recv));
                            } else {
                                MPI_Allgather(send.data(), c, MPI_UINT64_T, recv.data(), c,
                                              MPI_UINT64_T, MPI_COMM_WORLD);
                            }
                            break;
                        case alg::Family::bcast:
                            if (use_kamping) {
                                comm.bcast(send_recv_buf(send), send_recv_count(c),
                                           kamping::root(spec.root));
                            } else {
                                MPI_Bcast(send.data(), c, MPI_UINT64_T, spec.root, MPI_COMM_WORLD);
                            }
                            break;
                        case alg::Family::alltoall:
                            if (use_kamping) {
                                comm.alltoall(send_buf(send), recv_buf(recv));
                            } else {
                                MPI_Alltoall(send.data(), c, MPI_UINT64_T, recv.data(), c,
                                             MPI_UINT64_T, MPI_COMM_WORLD);
                            }
                            break;
                        default:
                            break;
                    }
                },
                cfg);
            if (!vtimes_match(run.rank_vtimes, res.finish, 1e-9)) {
                out.correct = false;
                std::string detail = what + ": threaded";
                for (double v : run.rank_vtimes) detail.append(" ").append(std::to_string(v * 1e6));
                detail.append(" us vs simulated");
                for (double v : res.finish) detail.append(" ").append(std::to_string(v * 1e6));
                out.errors.push_back(detail.append(" us"));
            }
        }
    }
}

/// Mean wall microseconds of sim::simulate per bulk_hier spec at `p` ranks
/// (2 per node), over the specs it prices. A refused spec returns quickly,
/// so it is left out of the mean and counted in `refused` instead.
double time_simulate(int p, int& refused) {
    xmpi::Config const cfg = workload_config("bulk_hier");
    auto const world = sim_world(p, cfg);
    double total = 0.0;
    int priced = 0;
    for (auto const& spec : bulk_specs(0)) {
        auto const t0 = Clock::now();
        sim::Result const r = sim::simulate(world, spec);
        double const us = secs(Clock::now() - t0) * 1e6;
        if (r.error != MPI_SUCCESS) {
            ++refused;
            continue;
        }
        total += us;
        ++priced;
    }
    return priced ? total / priced : 0.0;
}

template <typename W, typename Make>
void rank_body(int rank, Board& b, std::string const& workload, Make&& make, int warm_rounds,
               int warm_slots) {
    RankLog& log = b.logs[rank];
    log.entered = Clock::now();
    log.reads_cpu = rank == 0;
    trace::register_rank(rank);
    {
        W w = make(rank, log);
        drive(w, b, log, warm_rounds, warm_slots);
        if (trace::kEnabled && rank == 0) log.select_ns = time_select(workload);
        b.data.arrive_and_wait();  // no rank tears down while rank 0 still probes
    }
}

}  // namespace

std::vector<std::string> workload_names() { return {"small_coll", "bulk_hier", "bfs_rgg"}; }

Outcome run_workload(Options const& opt) {
    std::string const& w = opt.workload;
    auto const names = workload_names();
    if (std::find(names.begin(), names.end(), w) == names.end()) {
        throw std::invalid_argument("unknown workload '" + w + "'");
    }
    auto board = std::make_unique<Board>(opt.seconds);
    Board& b = *board;
    xmpi::Config const cfg = workload_config(w);

    auto const spawn = Clock::now();
    auto const result = xmpi::run(
        kRanks,
        [&](int rank) {
            // Warm-up: one round of every slot (bfs_rgg: one source), so
            // that schedules are built and buffers touched before the timed
            // phase. Later rounds ran no faster than the first, and warm-up
            // is the synchronizing part of set-up that outside load slows
            // most, so set-up keeps no more of it than that.
            if (w == "small_coll") {
                rank_body<SmallColl>(
                    rank, b, w, [&](int r, RankLog&) { return SmallColl(opt.seed, r); }, 1,
                    SmallColl::kSlots);
            } else if (w == "bulk_hier") {
                rank_body<BulkHier>(
                    rank, b, w, [&](int r, RankLog&) { return BulkHier(opt.seed, r); }, 1,
                    BulkHier::kSlots);
            } else {
                rank_body<BfsRgg>(
                    rank, b, w,
                    [&](int r, RankLog& log) { return BfsRgg(opt.seed, r, b, log); }, 1, 1);
            }
        },
        cfg);
    (void)result;

    Outcome out;
    // Samples: max over ranks of the batch time, per operation.
    RankLog const& l0 = b.logs[0];
    std::size_t const n = l0.wall.size();
    std::vector<double> kamping_us, raw_us, warm_us;
    std::map<std::string, std::vector<double>> slot_us[trace::kSides];
    double vt_first_round = 0.0;
    U64 ops_first_round = 0;
    int first_round = -1;
    U64 warm_failed = 0;
    for (std::size_t k = 0; k < n; ++k) {
        double wall = 0.0, vt = 0.0;
        U64 fails = 0;  // an operation fails if it failed on any rank
        for (auto const& log : b.logs) {
            wall = std::max(wall, log.wall[k]);
            vt = std::max(vt, log.vt[k]);
            fails |= log.fails[k];
        }
        double const per_op = wall / l0.nops[k] * 1e6;
        bool const kamping = l0.side[k] == static_cast<std::uint8_t>(Side::kamping);
        if (!l0.timed[k]) {
            warm_failed += static_cast<U64>(std::popcount(fails));
            if (kamping) warm_us.push_back(per_op);
            continue;
        }
        out.failed += static_cast<U64>(std::popcount(fails));
        if (first_round < 0) first_round = l0.round[k];
        out.attempted += l0.nops[k];
        slot_us[l0.side[k]][b.slot_names[static_cast<std::size_t>(l0.slot[k])]].push_back(per_op);
        if (kamping) {
            kamping_us.push_back(per_op);
            if (l0.round[k] == first_round) {
                vt_first_round += vt;
                ops_first_round += l0.nops[k];
            }
        } else {
            raw_us.push_back(per_op);
        }
    }
    out.details.push_back({"warmup.op_us_p50", quantile(warm_us, 0.5), "us"});
    out.details.push_back({"op_us_p99", quantile(kamping_us, 0.99), "us"});
    for (auto const& [name, kamping] : slot_us[0]) {
        out.details.push_back({"slot." + name + ".kamping_us_p50", quantile(kamping, 0.5), "us"});
        out.details.push_back({"slot." + name + ".raw_us_p50", quantile(slot_us[1][name], 0.5),
                               "us"});
    }
    if (warm_failed != 0) {
        out.correct = false;
        out.errors.push_back(std::to_string(warm_failed) + " operations failed during warm-up");
    }
    for (auto const& log : b.logs) {
        if (log.wrong != 0) {
            out.correct = false;
            out.errors.push_back(log.why + " (" + std::to_string(log.wrong) + " failed checks)");
        }
    }
    if (w == "bulk_hier") check_against_simulator(opt.seed, out);

    double const op_p50 = quantile(kamping_us, 0.5);
    out.end_to_end = {
        {"op_us_p50", op_p50, "us"},
        {"raw_op_us_p50", quantile(raw_us, 0.5), "us"},
        {"op_vtime_us", ops_first_round ? vt_first_round / ops_first_round * 1e6 : 0.0, "us"},
        {"cpu_us_per_op", out.attempted ? l0.cpu / static_cast<double>(out.attempted) * 1e6 : 0.0,
         "us"},
        {"setup_s", secs(b.timed_start - opt.process_start), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };

    if constexpr (trace::kEnabled) {
        trace::Summary const s = trace::summarize();
        auto const& ks = s.side[static_cast<int>(Side::kamping)];
        auto const& rs = s.side[static_cast<int>(Side::raw)];
        auto per = [](double x, U64 d) { return d ? x / static_cast<double>(d) : 0.0; };
        auto& L = out.per_layer;
        L.push_back({"trace.op_us_p50", op_p50, "us"});
        L.push_back({"trace.op_us_p99", quantile(kamping_us, 0.99), "us"});
        L.push_back({"trace.spans_per_op", per(static_cast<double>(s.spans_total), ks.ops + rs.ops),
                     "count"});
        L.push_back({"kamping.self_ns_per_op",
                     per(static_cast<double>(ks.incl_ns - ks.mpi_ns), ks.ops), "ns"});
        L.push_back({"raw.self_ns_per_op", per(static_cast<double>(rs.incl_ns - rs.mpi_ns), rs.ops),
                     "ns"});
        L.push_back({"kamping.mpi_calls_per_op", per(static_cast<double>(ks.mpi_calls), ks.ops),
                     "count"});
        L.push_back({"raw.mpi_calls_per_op", per(static_cast<double>(rs.mpi_calls), rs.ops),
                     "count"});
        L.push_back({"kamping.allocs_per_op", per(static_cast<double>(ks.self_allocs), ks.ops),
                     "count"});
        L.push_back({"xmpi.allocs_per_op", per(static_cast<double>(ks.mpi_allocs), ks.ops),
                     "count"});
        static constexpr char const* kFamilies[] = {
            "allreduce", "bcast",      "allgather", "allgatherv", "alltoall",
            "alltoallv", "barrier",    "iallreduce", "wait",      "start"};
        for (char const* fam : kFamilies) {
            std::string fn = std::string("MPI_") + fam;
            fn[4] = static_cast<char>(std::toupper(fn[4]));
            std::vector<double> us;
            for (auto const& [name, durs] : s.entry_ns) {
                if (name != fn) continue;
                for (auto d : durs) us.push_back(static_cast<double>(d) * 1e-3);
            }
            L.push_back({std::string("xmpi.") + fam + ".us_p50", quantile(us, 0.5), "us"});
        }

        // Substrate counters over the timed phase, summed over ranks.
        U64 delta[kPvs] = {};
        for (auto const& log : b.logs) {
            for (int k = 0; k < kPvs; ++k) delta[k] += log.pv1.v[k] - log.pv0.v[k];
        }
        double const ops = static_cast<double>(out.attempted);
        auto per_op = [&](double x) { return ops > 0 ? x / ops : 0.0; };
        L.push_back({"p2p.wait_us_per_op", per_op(delta[pv_wait_ns] * 1e-3 / kRanks), "us"});
        L.push_back({"p2p.messages_per_op",
                     per_op(static_cast<double>(delta[pv_p2p_messages] + delta[pv_coll_messages])),
                     "count"});
        L.push_back({"p2p.bytes_per_op",
                     per_op(static_cast<double>(delta[pv_p2p_bytes] + delta[pv_coll_bytes])),
                     "bytes"});
        L.push_back({"p2p.intra_node_bytes_per_op",
                     per_op(static_cast<double>(delta[pv_intra_bytes])), "bytes"});
        L.push_back({"alg.select_ns", b.logs[0].select_ns, "ns"});
        L.push_back({"sched.builds_per_op", per_op(static_cast<double>(delta[pv_builds])),
                     "count"});
        double const probes = static_cast<double>(delta[pv_builds] + delta[pv_hits]);
        L.push_back({"sched.cache_hit_ratio",
                     probes > 0 ? static_cast<double>(delta[pv_hits]) / probes : 0.0, "ratio"});
        L.push_back({"sched.peak_scratch_bytes",
                     static_cast<double>(b.logs[0].pv1.v[pv_peak_scratch]), "bytes"});
        L.push_back({"shm.copies_per_op", per_op(static_cast<double>(delta[pv_shm_copies])),
                     "count"});
        L.push_back({"shm.copy_bytes_per_op", per_op(static_cast<double>(delta[pv_shm_bytes])),
                     "bytes"});
        int refused = 0;
        L.push_back({"sim.simulate_us", time_simulate(kRanks, refused), "us"});
        L.push_back({"sim.simulate_16384_us", time_simulate(16384, refused), "us"});
        L.push_back({"sim.refused_specs", static_cast<double>(refused), "count"});

        bool const bfs = w == "bfs_rgg";
        double levels = 0.0, gen_s = 0.0;
        for (auto const& log : b.logs) gen_s = std::max(gen_s, log.generate_s);
        if (!l0.levels.empty()) {
            levels = std::accumulate(l0.levels.begin(), l0.levels.end(), 0.0) /
                     static_cast<double>(l0.levels.size());
        }
        L.push_back({"apps.self_ms_per_traversal",
                     bfs ? per(static_cast<double>(ks.incl_ns - ks.mpi_ns), ks.ops) * 1e-6 : 0.0,
                     "ms"});
        L.push_back({"apps.mpi_ms_per_traversal",
                     bfs ? per(static_cast<double>(ks.mpi_ns), ks.ops) * 1e-6 : 0.0, "ms"});
        L.push_back({"apps.levels_per_traversal", levels, "count"});
        L.push_back({"kagen.generate_s", gen_s, "s"});
        Clock::time_point last_entry = spawn;
        for (auto const& log : b.logs) last_entry = std::max(last_entry, log.entered);
        L.push_back({"runtime.spawn_ms", secs(last_entry - spawn) * 1e3, "ms"});
        if (!opt.spans_path.empty()) trace::write_spans(opt.spans_path);
    }
    return out;
}

}  // namespace perfbench
