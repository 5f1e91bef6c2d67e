/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Every call the traced mode makes into a layer of the program is
 * wrapped in a span: name, start, end, the span that caused it, and
 * the id of the operation it belongs to. Spans stay in memory and are
 * written once, at the end of the run, as a Chrome trace
 * (chrome://tracing, https://ui.perfetto.dev).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds since the process started (a monotonic clock). */
double sinceStart();

/** One closed (or still open) span. */
struct Span
{
    std::string name;
    /** Seconds since process start. */
    double start = 0.0;
    double end = 0.0;
    /** 1-based span id; 0 is "no span". */
    uint64_t id = 0;
    /** Id of the enclosing span, 0 for a root. */
    uint64_t parent = 0;
    /** Operation the span belongs to (shared by all its spans). */
    uint64_t op = 0;
};

/**
 * Single-threaded span recorder. A disabled recorder records nothing
 * but still times its scopes, so the same code path serves the
 * untraced and the traced mode.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its id. */
    uint64_t open(const std::string &name, uint64_t op);

    /**
     * Close the innermost open span, which must be @p id (otherwise
     * the trace is marked broken and parentsResolve() fails).
     */
    void close(uint64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Whether every span was closed in order and every nonzero parent
     * names a recorded span of the same operation.
     */
    bool parentsResolve() const;

    /** The spans as a Chrome trace JSON document. */
    std::string chromeJson() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<uint64_t> stack_;
    bool misnested_ = false;
};

/**
 * RAII span: opens on construction, closes on destruction, and
 * reports its own duration either way.
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, uint64_t op);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Seconds since the scope opened. */
    double seconds() const { return sinceStart() - start_; }

  private:
    Tracer &tracer_;
    uint64_t id_ = 0;
    double start_;
};

/** Run @p fn inside a span and return the seconds it took. */
template <typename Fn>
double
timed(Tracer &tracer, const std::string &name, uint64_t op, Fn &&fn)
{
    Scope scope(tracer, name, op);
    fn();
    return scope.seconds();
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
