#include "trace.hh"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench
{

namespace
{

// Initialised during static construction, i.e. before main(): set-up
// time is measured from here.
const auto kProcessStart = std::chrono::steady_clock::now();

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // anonymous namespace

double
sinceStart()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - kProcessStart)
        .count();
}

uint64_t
Tracer::open(const std::string &name, uint64_t op)
{
    if (!enabled_)
        return 0;
    Span span;
    span.name = name;
    span.start = sinceStart();
    span.id = spans_.size() + 1;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.op = op;
    spans_.push_back(span);
    stack_.push_back(span.id);
    return span.id;
}

void
Tracer::close(uint64_t id)
{
    if (!enabled_)
        return;
    if (stack_.empty() || stack_.back() != id) {
        misnested_ = true;
        return;
    }
    spans_[id - 1].end = sinceStart();
    stack_.pop_back();
}

bool
Tracer::parentsResolve() const
{
    if (misnested_ || !stack_.empty())
        return false;
    std::unordered_map<uint64_t, const Span *> by_id;
    for (const Span &s : spans_)
        by_id[s.id] = &s;
    for (const Span &s : spans_) {
        if (s.end < s.start)
            return false;
        if (s.parent == 0)
            continue;
        auto it = by_id.find(s.parent);
        if (it == by_id.end() || it->second->op != s.op)
            return false;
    }
    return true;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":"
                      "{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                      i ? "," : "", jsonEscape(s.name).c_str(),
                      s.start * 1e6, (s.end - s.start) * 1e6,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.op));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

Scope::Scope(Tracer &tracer, const std::string &name, uint64_t op)
    : tracer_(tracer), start_(sinceStart())
{
    id_ = tracer_.open(name, op);
}

Scope::~Scope() { tracer_.close(id_); }

} // namespace perfbench
