/// @file trace.hpp
/// @brief Span tracing of the benchmark's traced build (PERFBENCH_TRACE).
///
/// The driver opens an *op span* around every operation it times (one
/// collective call, or one BFS traversal); the traced build's link-time
/// wrappers open an *MPI span* around every MPI_* entry (trace_on.cpp). An
/// MPI span's parent is the innermost open span of the same thread, so
/// substrate-internal MPI_* calls nest under the entry that made them. A
/// counting global operator new attributes each allocation to the innermost
/// open span. Spans are kept in memory (a bounded per-thread log plus
/// running aggregates) and written out when the run ends.
///
/// In the untraced build every hook below is an empty inline function, so
/// the measured binary carries no tracing code at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/// Which side of a twin an op span belongs to.
enum class Side : int { kamping = 0, raw = 1 };
inline constexpr int kSides = 2;

/// Aggregates of the op spans of one side, summed over every rank thread.
struct OpAgg {
    std::uint64_t ops = 0;          ///< op spans closed
    std::uint64_t incl_ns = 0;      ///< total op span time
    std::uint64_t mpi_ns = 0;       ///< time in MPI spans that are direct children
    std::uint64_t mpi_calls = 0;    ///< MPI spans that are direct children
    std::uint64_t self_allocs = 0;  ///< allocations with the op span innermost
    std::uint64_t mpi_allocs = 0;   ///< allocations inside any nested MPI span
};

/// Everything the traced run reports, gathered after the rank threads joined.
struct Summary {
    OpAgg side[kSides];
    /// Per MPI_* entry name: durations (ns) of the entry spans, i.e. the MPI
    /// spans whose parent is an op span, over both sides and every rank.
    std::vector<std::pair<std::string, std::vector<std::uint32_t>>> entry_ns;
    std::uint64_t spans_total = 0;  ///< spans closed while active
};

#if PERFBENCH_TRACE
inline constexpr bool kEnabled = true;

/// Registers the calling rank thread (call first thing in a rank body).
void register_rank(int rank);
/// Starts or stops recording on the calling thread (the timed phase only).
void set_active(bool on);
void op_begin(Side side);
void op_end();
/// Merges every registered thread's state; call after the universe joined.
Summary summarize();
/// Writes the logged spans as JSON lines (name, rank, start, end, parent).
void write_spans(std::string const& path);
#else
inline constexpr bool kEnabled = false;

inline void register_rank(int) {}
inline void set_active(bool) {}
inline void op_begin(Side) {}
inline void op_end() {}
inline Summary summarize() { return {}; }
inline void write_spans(std::string const&) {}
#endif

/// Scoped op span.
struct OpSpan {
    explicit OpSpan(Side side) { op_begin(side); }
    ~OpSpan() { op_end(); }
    OpSpan(OpSpan const&) = delete;
    OpSpan& operator=(OpSpan const&) = delete;
};

}  // namespace perfbench::trace
