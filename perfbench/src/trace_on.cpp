/// @file trace_on.cpp
/// @brief The traced build's span recorder, its link-time MPI_* wrappers
/// (generated by wrap.py) and its counting global operator new.
#include <time.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>

#include "trace.hpp"
#include "xmpi/mpi.h"

namespace perfbench::trace {

/// Scoped MPI span opened by every generated __wrap_ function.
struct MpiSpan {
    explicit MpiSpan(int fn);
    ~MpiSpan();
    MpiSpan(MpiSpan const&) = delete;
    MpiSpan& operator=(MpiSpan const&) = delete;
    bool on = false;
};

}  // namespace perfbench::trace

using perfbench::trace::MpiSpan;
#include "wrap_gen.inc"

namespace perfbench::trace {
namespace {

std::uint64_t now_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Span names: >= 0 is an index into kMpiFnNames, negative is an op span.
constexpr int kOpName[kSides] = {-1, -2};
int side_of(int name) { return name == kOpName[0] ? 0 : 1; }

struct Frame {
    int name = 0;
    int log_index = -1;
    std::uint64_t start = 0;
    std::uint64_t child_mpi_ns = 0;
    std::uint64_t child_mpi_calls = 0;
    std::uint64_t allocs = 0;
};

struct SpanRec {
    int name;
    int parent;  ///< log index of the parent span, -1 for none
    std::uint64_t start;
    std::uint64_t end;
};

constexpr int kMaxDepth = 64;
constexpr std::size_t kLogCap = std::size_t{1} << 14;

struct ThreadState {
    int rank = -1;
    bool active = false;
    /// Set while the recorder itself allocates, so its own vectors are not
    /// counted against the span that happens to be open.
    bool busy = false;
    int depth = 0;
    int op_depth = -1;  ///< stack index of the open op span, -1 for none
    Frame stack[kMaxDepth];
    OpAgg agg[kSides];
    std::vector<std::uint32_t> entry[kMpiFnCount];
    std::vector<SpanRec> log;
    std::uint64_t total = 0;
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded by g_mu
thread_local ThreadState* t_state = nullptr;

void begin(int name) {
    ThreadState* const s = t_state;
    Frame& f = s->stack[s->depth];
    f = Frame{name, -1, now_ns(), 0, 0, 0};
    if (s->log.size() < kLogCap) {
        int const parent = s->depth > 0 ? s->stack[s->depth - 1].log_index : -1;
        f.log_index = static_cast<int>(s->log.size());
        s->log.push_back(SpanRec{name, parent, f.start, 0});
    }
    if (name < 0) s->op_depth = s->depth;
    ++s->depth;
}

void end() {
    ThreadState* const s = t_state;
    Frame const f = s->stack[--s->depth];
    std::uint64_t const t = now_ns();
    std::uint64_t const dur = t - f.start;
    ++s->total;
    if (f.log_index >= 0) s->log[static_cast<std::size_t>(f.log_index)].end = t;
    if (f.name < 0) {
        OpAgg& a = s->agg[side_of(f.name)];
        ++a.ops;
        a.incl_ns += dur;
        a.mpi_ns += f.child_mpi_ns;
        a.mpi_calls += f.child_mpi_calls;
        a.self_allocs += f.allocs;
        s->op_depth = -1;
        return;
    }
    if (s->op_depth >= 0) {
        Frame& op = s->stack[s->op_depth];
        s->agg[side_of(op.name)].mpi_allocs += f.allocs;
        if (s->op_depth == s->depth - 1) {
            op.child_mpi_ns += dur;
            ++op.child_mpi_calls;
            s->busy = true;
            s->entry[f.name].push_back(
                static_cast<std::uint32_t>(std::min<std::uint64_t>(dur, ~0u)));
            s->busy = false;
        }
    }
}

bool recording() {
    ThreadState const* const s = t_state;
    return s != nullptr && s->active && !s->busy && s->depth < kMaxDepth;
}

void count_alloc() {
    ThreadState* const s = t_state;
    if (s != nullptr && s->active && !s->busy && s->depth > 0) ++s->stack[s->depth - 1].allocs;
}

}  // namespace

MpiSpan::MpiSpan(int fn) {
    if (!recording()) return;
    on = true;
    begin(fn);
}

MpiSpan::~MpiSpan() {
    if (on) end();
}

void register_rank(int rank) {
    auto s = std::make_unique<ThreadState>();
    s->rank = rank;
    s->log.reserve(kLogCap);
    t_state = s.get();
    std::lock_guard lock(g_mu);
    g_threads.push_back(std::move(s));
}

void set_active(bool on) {
    if (t_state != nullptr) t_state->active = on;
}

void op_begin(Side side) {
    if (recording()) begin(kOpName[static_cast<int>(side)]);
}

void op_end() {
    ThreadState const* const s = t_state;
    if (s != nullptr && s->active && s->depth > 0 && s->stack[s->depth - 1].name < 0) end();
}

Summary summarize() {
    std::lock_guard lock(g_mu);
    Summary out;
    for (int fn = 0; fn < kMpiFnCount; ++fn) out.entry_ns.push_back({kMpiFnNames[fn], {}});
    for (auto const& s : g_threads) {
        for (int k = 0; k < kSides; ++k) {
            OpAgg& o = out.side[k];
            OpAgg const& a = s->agg[k];
            o.ops += a.ops;
            o.incl_ns += a.incl_ns;
            o.mpi_ns += a.mpi_ns;
            o.mpi_calls += a.mpi_calls;
            o.self_allocs += a.self_allocs;
            o.mpi_allocs += a.mpi_allocs;
        }
        for (int fn = 0; fn < kMpiFnCount; ++fn) {
            auto& dst = out.entry_ns[static_cast<std::size_t>(fn)].second;
            dst.insert(dst.end(), s->entry[fn].begin(), s->entry[fn].end());
        }
        out.spans_total += s->total;
    }
    return out;
}

void write_spans(std::string const& path) {
    std::lock_guard lock(g_mu);
    std::ofstream f(path);
    auto name = [](int n) -> char const* {
        if (n == kOpName[0]) return "op.kamping";
        if (n == kOpName[1]) return "op.raw";
        return kMpiFnNames[n];
    };
    for (auto const& s : g_threads) {
        for (std::size_t i = 0; i < s->log.size(); ++i) {
            SpanRec const& r = s->log[i];
            f << "{\"name\":\"" << name(r.name) << "\",\"rank\":" << s->rank << ",\"id\":" << i
              << ",\"parent\":" << r.parent << ",\"start_ns\":" << r.start
              << ",\"end_ns\":" << r.end << "}\n";
        }
    }
}

}  // namespace perfbench::trace

// Counting allocation functions. Only the non-aligned forms are replaced;
// the aligned forms keep their own matching pair from the runtime.
void* operator new(std::size_t n) {
    perfbench::trace::count_alloc();
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::nothrow_t const&) noexcept {
    perfbench::trace::count_alloc();
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, std::nothrow_t const& t) noexcept {
    return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::nothrow_t const&) noexcept { std::free(p); }
void operator delete[](void* p, std::nothrow_t const&) noexcept { std::free(p); }
