// The traced run: the workload's input replayed in-process through the same
// layer calls the server makes, in the server's order
//
//   decode -> append -> engine step/drain (spectre, sequential or shard)
//          -> result encode -> flush
//
// with a span around each call (name, start, end, parent), plus one paced
// phase against a real server read back through the admin scrape. Spans are
// recorded from this file, around the calls into each layer; they are kept
// in memory and written out when the run ends.
#include "trace.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "data/stock.hpp"
#include "detect/compiled_query.hpp"
#include "loadgen.hpp"
#include "model/markov_model.hpp"
#include "net/egress_ring.hpp"
#include "query/parser.hpp"
#include "report.hpp"
#include "sequential/seq_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "spectre/runtime.hpp"

using namespace spectre;

namespace cepbench {

namespace {

// --- spans ------------------------------------------------------------------

struct Span {
    const char* name;  // "<layer>.<call>"; the layer is the src/ module
    std::uint32_t parent;
    std::int64_t start, end;
};

constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

class Tracer {
public:
    explicit Tracer(bool on) : on_(on) {}

    class Scope {
    public:
        Scope(Tracer& t, const char* name) : t_(t) {
            if (!t_.on_) return;
            idx_ = static_cast<std::uint32_t>(t_.spans_.size());
            const std::uint32_t parent = t_.stack_.empty() ? kNoParent : t_.stack_.back();
            t_.spans_.push_back({name, parent, now_ns(), 0});
            t_.stack_.push_back(idx_);
        }
        ~Scope() {
            if (!t_.on_) return;
            t_.spans_[idx_].end = now_ns();
            t_.stack_.pop_back();
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& t_;
        std::uint32_t idx_ = 0;
    };

    const std::vector<Span>& spans() const { return spans_; }

    // Self time (duration minus the part covered by child spans) per name.
    std::map<std::string, double> self_ns() const {
        std::vector<double> child(spans_.size(), 0);
        for (const auto& s : spans_)
            if (s.parent != kNoParent) child[s.parent] += static_cast<double>(s.end - s.start);
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[spans_[i].name] += static_cast<double>(spans_[i].end - spans_[i].start) - child[i];
        return out;
    }

    // Total duration per name, and the durations of one name in order.
    double total_ns(const std::string& name) const {
        double t = 0;
        for (const auto& s : spans_)
            if (name == s.name) t += static_cast<double>(s.end - s.start);
        return t;
    }
    std::vector<double> durations(const std::string& name) const {
        std::vector<double> d;
        for (const auto& s : spans_)
            if (name == s.name) d.push_back(static_cast<double>(s.end - s.start));
        return d;
    }

    void write(const std::string& path) const {
        std::ofstream f(path);
        f << "id\tparent\tname\tstart_ns\tend_ns\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            f << i << '\t' << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
              << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\n';
        }
    }

private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

// --- replay -----------------------------------------------------------------

enum class Engine { Spectre, Sequential, Sharded };

struct ReplaySpec {
    Engine engine = Engine::Sequential;
    std::vector<std::string> queries;  // one engine (and RESULT stream) each
    std::size_t events = 0;            // a prefix of the workload's stream
    std::size_t batch = 1;             // arrivals between engine steps
};

struct ReplayOut {
    double wall_ns = 0;
    std::vector<std::vector<event::ComplexEvent>> results;
    core::SchedStats sched;
    std::vector<std::uint64_t> routed;  // events per shard
};

// Session engine shape, as the server's defaults configure it.
constexpr std::size_t kBatchEvents = 64;
constexpr std::size_t kQuantumWindows = 4;
constexpr std::uint32_t kSpectreInstances = 3;
constexpr std::uint32_t kShards = 4;
// Untraced/traced replay pairs per traced run.
constexpr int kReplayPasses = 3;

ReplayOut replay(const ReplaySpec& spec, const Inputs& in, Tracer& tr) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    std::vector<std::unique_ptr<detect::CompiledQuery>> cqs;
    for (const auto& q : spec.queries)
        cqs.push_back(std::make_unique<detect::CompiledQuery>(
            detect::CompiledQuery::compile(query::parse_query(q, vocab.schema))));
    const std::size_t nq = cqs.size();

    ReplayOut out;
    out.results.resize(nq);
    std::vector<std::vector<event::ComplexEvent>> pending(nq);
    const auto sink_for = [&pending](std::size_t q) {
        return [&pending, q](event::ComplexEvent&& ce) { pending[q].push_back(std::move(ce)); };
    };

    // Egress: one ring per RESULT stream, flushed into a socketpair whose
    // other end the harness drains.
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        throw std::runtime_error("socketpair failed");
    std::vector<net::EgressRing> rings(nq);
    const net::EgressRing::SendvFn sendv = [fd = sv[0]](const iovec* iov, int n) {
        msghdr msg{};
        msg.msg_iov = const_cast<iovec*>(iov);
        msg.msg_iovlen = static_cast<std::size_t>(n);
        return sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    };
    std::vector<std::uint8_t> sink_buf(256 * 1024);
    const auto drain_socket = [&] {
        Tracer::Scope s(tr, "harness.sink");
        while (recv(sv[1], sink_buf.data(), sink_buf.size(), MSG_DONTWAIT) > 0) {
        }
    };
    const auto egress = [&] {
        bool any = false;
        for (const auto& p : pending) any = any || !p.empty();
        if (!any) return;
        {
            Tracer::Scope s(tr, "net.result_encode");
            for (std::size_t q = 0; q < nq; ++q)
                for (const auto& ce : pending[q]) rings[q].append(net::to_result_frame(ce));
        }
        for (std::size_t q = 0; q < nq; ++q) {
            for (auto& ce : pending[q]) out.results[q].push_back(std::move(ce));
            pending[q].clear();
        }
        for (std::size_t q = 0; q < nq; ++q) {
            while (!rings[q].empty()) {
                net::EgressRing::FlushResult r;
                {
                    Tracer::Scope s(tr, "net.egress_flush");
                    r = rings[q].flush(sendv);
                }
                if (r.status == net::EgressRing::FlushStatus::Error)
                    throw std::runtime_error("egress flush failed");
                drain_socket();
            }
        }
    };

    // Engines.
    event::EventStore store;
    std::unique_ptr<core::SpectreRuntime> runtime;
    std::vector<std::unique_ptr<sequential::SeqStepper>> steppers;
    std::unique_ptr<shard::ShardedEngine> sharded;
    if (spec.engine == Engine::Spectre) {
        core::RuntimeConfig cfg;
        cfg.splitter.instances = static_cast<int>(kSpectreInstances);
        cfg.batch_events = kBatchEvents;
        cfg.quantum_budget = kBatchEvents;
        runtime = std::make_unique<core::SpectreRuntime>(
            &store, cqs[0].get(), cfg,
            std::make_unique<model::MarkovModel>(cqs[0]->min_length(), model::MarkovParams{}));
        runtime->set_result_sink(sink_for(0));
    } else if (spec.engine == Engine::Sequential) {
        for (std::size_t q = 0; q < nq; ++q)
            steppers.push_back(
                std::make_unique<sequential::SeqStepper>(cqs[q].get(), &store, sink_for(q)));
    } else {
        shard::ShardedConfig cfg;
        cfg.shards = kShards;
        sharded = std::make_unique<shard::ShardedEngine>(cqs[0].get(), cfg, sink_for(0));
        out.routed.assign(kShards, 0);
    }

    const auto step_engine = [&](bool closing) {
        if (runtime) {
            Tracer::Scope s(tr, "spectre.step");
            // To quiescence: a step that still did work may have uncovered
            // more (new windows at the fresh frontier), so step again.
            while (true) {
                const auto p = runtime->step();
                if (p.done || (p.quiescent && p.events_processed == 0)) break;
            }
        } else if (sharded) {
            Tracer::Scope s(tr, "shard.step");
            bool progress = true;
            while (progress && !sharded->finished()) {
                progress = false;
                for (std::uint32_t sh = 0; sh < kShards; ++sh) {
                    const auto r = sharded->step_shard(sh, kBatchEvents);
                    progress = progress || r.events > 0 || (closing && !r.shard_finished);
                }
            }
        } else {
            for (auto& st : steppers) {
                Tracer::Scope s(tr, "sequential.drain");
                while (st->drain(kQuantumWindows)) {
                }
            }
        }
    };

    std::vector<event::Event> decoded;
    decoded.reserve(spec.batch);
    const std::int64_t t0 = now_ns();
    {
        Tracer::Scope root(tr, "harness.replay");
        for (std::size_t b = 0; b < spec.events; b += spec.batch) {
            const std::size_t e = std::min(spec.events, b + spec.batch);
            const std::size_t from = b ? in.frame_end[b - 1] : 0;
            {
                Tracer::Scope s(tr, "net.decode");
                decoded.clear();
                const std::uint8_t* data = in.data_bytes.data() + from;
                const std::size_t size = in.frame_end[e - 1] - from;
                std::size_t pos = 0;
                net::DataFrameView dv;
                while (pos < size) {
                    if (net::scatter_data(data, size, pos, dv) != net::ScatterStatus::Data)
                        throw std::runtime_error("replay: not a DATA frame");
                    decoded.push_back(data::make_quote(
                        vocab, dv.ts, vocab.schema->intern_subject(dv.symbol_view()), dv.open,
                        dv.close, dv.volume));
                }
            }
            if (sharded) {
                Tracer::Scope s(tr, "shard.ingest");
                for (auto& ev : decoded) ++out.routed[sharded->ingest(std::move(ev)).shard];
            } else {
                Tracer::Scope s(tr, "event.append");
                for (auto& ev : decoded) store.append(std::move(ev));
            }
            step_engine(false);
            egress();
        }
        if (sharded) sharded->close_input();
        else store.close();
        step_engine(true);
        egress();
    }
    out.wall_ns = static_cast<double>(now_ns() - t0);
    if (runtime) out.sched = runtime->sched_stats();
    close(sv[0]);
    close(sv[1]);
    return out;
}

// Streams `out` against the references over the same prefix.
void check(Report& rep, const ReplayOut& out, const std::vector<const Reference*>& refs,
           const char* what) {
    for (std::size_t q = 0; q < refs.size(); ++q) {
        const std::size_t failed = count_failed(refs[q]->results, out.results[q]);
        rep.add(refs[q]->results.size(), failed,
                failed ? std::string(what) + ": RESULT stream differs from the oracle" : "");
    }
}

// Per-event step time of the last tenth of the stream over the first, from
// one step duration per arrival.
double growth(const std::vector<double>& per_event, std::size_t events) {
    const std::size_t tenth = std::max<std::size_t>(1, events / 10);
    if (per_event.size() < events) return 0;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < tenth; ++i) {
        first += per_event[i];
        last += per_event[events - tenth + i];
    }
    return first > 0 ? last / first : 0;
}

// --- admin scrape -------------------------------------------------------------

struct Scrape {
    std::map<std::string, double> value;
    std::map<std::string, std::vector<std::pair<double, double>>> buckets;  // (le, cum)

    explicit Scrape(const std::string& text) {
        std::istringstream is(text);
        std::string line;
        while (std::getline(is, line)) {
            if (line.rfind("spectre_", 0) != 0) continue;
            const auto sp = line.rfind(' ');
            if (sp == std::string::npos) continue;
            const double v = std::atof(line.c_str() + sp + 1);
            std::string key = line.substr(8, sp - 8);
            const auto brace = key.find('{');
            if (brace == std::string::npos) {
                value[key] += v;
                continue;
            }
            const std::string base = key.substr(0, brace);
            const auto le = key.find("le=\"");
            if (base.size() > 7 && base.compare(base.size() - 7, 7, "_bucket") == 0 &&
                le != std::string::npos) {
                const std::string bound = key.substr(le + 4, key.find('"', le + 4) - le - 4);
                if (bound != "+Inf")
                    buckets[base.substr(0, base.size() - 7)].push_back(
                        {std::atof(bound.c_str()), v});
            } else {
                value[base] += v;  // labelled series: summed over labels
            }
        }
    }

    double get(const std::string& name) const {
        const auto it = value.find(name);
        return it == value.end() ? 0 : it->second;
    }

    // Quantile of a log2-bucketed histogram, interpolated linearly inside
    // the bucket that holds it (as Prometheus' histogram_quantile does).
    double quantile(const std::string& name, double q) const {
        const auto it = buckets.find(name);
        if (it == buckets.end() || it->second.empty()) return 0;
        const auto& b = it->second;
        const double target = q * b.back().second;
        double prev_le = -1, prev_cum = 0;
        for (const auto& [le, cum] : b) {
            if (cum >= target) {
                const double lo = prev_le + 1;
                const double frac = cum > prev_cum ? (target - prev_cum) / (cum - prev_cum) : 1;
                return lo + (le - lo) * frac;
            }
            prev_le = le;
            prev_cum = cum;
        }
        return b.back().first;
    }
};

int thread_count() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
    return 0;
}

std::string trace_path(const Workload& w) {
    const std::string exe = self_exe();
    const std::string dir = exe.substr(0, exe.rfind('/')) + "/traces";
    mkdir(dir.c_str(), 0755);
    return dir + "/" + w.name + ".tsv";
}

// Median time of `f` over repeated calls, in µs.
template <typename F>
double median_us(F&& f) {
    std::vector<double> t;
    for (int i = 0; i < 101; ++i) {
        const std::int64_t t0 = now_ns();
        f();
        t.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    return median(t);
}

}  // namespace

int run_traced(const Workload& w, const Inputs& in) {
    Report rep;
    const double n = static_cast<double>(w.events);
    std::vector<std::string> queries;
    for (const auto& s : w.sessions)
        if (!s.query.empty()) queries.push_back(s.query);
    const Engine engine = w.partitioned ? Engine::Sharded
                          : w.sessions[0].instances > 0 ? Engine::Spectre
                                                        : Engine::Sequential;
    std::vector<const Reference*> refs;
    for (std::size_t i = 0; i < w.sessions.size(); ++i)
        if (!w.sessions[i].query.empty()) refs.push_back(&in.expected[i]);

    // query / detect: parse and compile the workload's queries.
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    const double parse_us = median_us([&] {
        for (const auto& q : queries) (void)query::parse_query(q, vocab.schema);
    });
    std::vector<query::Query> parsed;
    for (const auto& q : queries) parsed.push_back(query::parse_query(q, vocab.schema));
    const double compile_us = median_us([&] {
        for (const auto& q : parsed) (void)detect::CompiledQuery::compile(q);
    });

    // The workload's own replay, untraced and traced in alternation; the
    // overhead compares median walls, the ledger uses the last traced pass.
    const ReplaySpec main_spec{engine, queries, w.events, w.replay_batch};
    std::vector<double> plain_wall, traced_wall;
    Tracer tr(true);
    ReplayOut traced;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
        Tracer off(false);
        const ReplayOut plain = replay(main_spec, in, off);
        check(rep, plain, refs, "untraced replay");
        plain_wall.push_back(plain.wall_ns);
        tr = Tracer(true);
        traced = replay(main_spec, in, tr);
        check(rep, traced, refs, "traced replay");
        traced_wall.push_back(traced.wall_ns);
    }
    const auto self = tr.self_ns();
    std::map<std::string, double> layer_self;
    double covered = 0;
    for (const auto& [name, ns] : self) {
        if (name == "harness.replay") continue;
        layer_self[name.substr(0, name.find('.'))] += ns;
        covered += ns;
    }
    std::size_t results = 0;
    for (const auto& r : traced.results) results += r.size();

    // Layers this workload's server path bypasses are replayed on a prefix
    // of the same stream with their own query, so every layer metric is
    // measured on every workload (see README.md).
    const std::size_t kSpectreProbeEvents = 4'000, kShardProbeEvents = 50'000;
    ReplayOut spectre_probe, shard_probe;
    const ReplayOut* spectre_out = &traced;
    const ReplayOut* shard_out = &traced;
    Tracer spectre_tr(true);
    const Tracer* spectre_spans = &tr;
    std::size_t spectre_events = w.events;
    double spectre_seq_ns = in.drain_ns_per_event;
    if (engine != Engine::Spectre) {
        spectre_events = std::min<std::size_t>(kSpectreProbeEvents, w.events);
        const std::vector<net::WireQuote> prefix(in.wire.begin(), in.wire.begin() + spectre_events);
        const Reference ref = reference_run(q1_text(), false, prefix);
        spectre_seq_ns = ref.drain_ns_per_event;
        spectre_probe = replay({Engine::Spectre, {q1_text()}, spectre_events, 1}, in, spectre_tr);
        check(rep, spectre_probe, {&ref}, "spectre probe");
        spectre_out = &spectre_probe;
        spectre_spans = &spectre_tr;
    }
    Tracer shard_tr(true);
    const Tracer* shard_spans = &tr;
    std::size_t shard_events = w.events;
    if (engine != Engine::Sharded) {
        shard_events = std::min<std::size_t>(kShardProbeEvents, w.events);
        const std::vector<net::WireQuote> prefix(in.wire.begin(), in.wire.begin() + shard_events);
        const Reference ref = reference_run(shard_query_text(), true, prefix);
        shard_probe =
            replay({Engine::Sharded, {shard_query_text()}, shard_events, 32}, in, shard_tr);
        check(rep, shard_probe, {&ref}, "shard probe");
        shard_out = &shard_probe;
        shard_spans = &shard_tr;
    }

    // One paced phase against a real server, read back through the scrape.
    const PhaseResult phase = run_phase(w, in, Pace::Paced, true);
    rep.account(phase);
    const Scrape sc(phase.scrape);
    const double emitted = std::max(1.0, sc.get("results_emitted"));

    const double spectre_step_ns =
        spectre_spans->total_ns("spectre.step") / static_cast<double>(spectre_events);
    const auto& sched = spectre_out->sched;
    const double se = static_cast<double>(spectre_events);
    std::uint64_t routed_total = 0, routed_max = 0;
    for (auto r : shard_out->routed) {
        routed_total += r;
        routed_max = std::max(routed_max, r);
    }
    const double wall = traced.wall_ns;

    rep.metric("net.decode_ns_per_event", tr.total_ns("net.decode") / n, "ns");
    rep.metric("net.result_encode_ns_per_result",
               tr.total_ns("net.result_encode") / std::max<double>(1, results), "ns");
    rep.metric("net.egress_flush_ns_per_result",
               tr.total_ns("net.egress_flush") / std::max<double>(1, results), "ns");
    rep.metric("net.ingest_copied_bytes_per_event", sc.get("ingest_copied_bytes") / n, "B");
    rep.metric("net.egress_writevs_per_kresult", sc.get("egress_writevs") * 1000 / emitted,
               "count");
    rep.metric("event.append_ns_per_event", in.append_ns_per_event, "ns");
    rep.metric("event.hub_chunks_reclaimed", sc.get("hub_chunks_reclaimed"), "count");
    rep.metric("query.parse_us", parse_us, "us");
    rep.metric("detect.compile_us", compile_us, "us");
    const double lookups = sc.get("compile_cache_hits") + sc.get("compile_cache_misses");
    rep.metric("detect.compile_cache_hit_ratio",
               lookups > 0 ? sc.get("compile_cache_hits") / lookups : 0, "ratio");
    rep.metric("sequential.drain_ns_per_event", in.drain_ns_per_event, "ns");
    rep.metric("spectre.step_ns_per_event", spectre_step_ns, "ns");
    rep.metric("spectre.step_cost_growth",
               growth(spectre_spans->durations("spectre.step"), spectre_events), "ratio");
    rep.metric("spectre.vs_sequential_cost",
               spectre_seq_ns > 0 ? spectre_step_ns / spectre_seq_ns : 0, "ratio");
    rep.metric("spectre.useful_ratio",
               sched.batch_events
                   ? 1.0 - static_cast<double>(sched.speculation_wasted_events) /
                               static_cast<double>(sched.batch_events)
                   : 0,
               "ratio");
    rep.metric("spectre.cycles_per_event", static_cast<double>(sched.cycles) / se, "count");
    rep.metric("spectre.batches_per_event", static_cast<double>(sched.batches) / se, "count");
    rep.metric("shard.ingest_ns_per_event",
               shard_spans->total_ns("shard.ingest") / static_cast<double>(shard_events), "ns");
    rep.metric("shard.step_ns_per_event",
               shard_spans->total_ns("shard.step") / static_cast<double>(shard_events), "ns");
    rep.metric("shard.hot_share",
               routed_total
                   ? static_cast<double>(routed_max) / static_cast<double>(routed_total)
                   : 0,
               "ratio");
    rep.metric("server.pool_queue_wait_ns_p50", sc.quantile("pool_queue_wait_ns", 0.5), "ns");
    rep.metric("server.quantum_ns_p50", sc.quantile("quantum_ns", 0.5), "ns");
    rep.metric("server.parks_input_per_kevent", sc.get("parks_input") * 1000 / n, "count");
    rep.metric("server.parks_egress", sc.get("parks_egress"), "count");
    rep.metric("server.ingest_pauses", sc.get("ingest_pauses"), "count");
    rep.metric("obs.scrape_us", phase.scrape_us, "us");
    rep.metric("harness.lateness_ms_max", phase.lateness_ms_max, "ms");
    rep.metric("harness.threads", thread_count(), "count");
    rep.metric("harness.connections", static_cast<double>(w.sessions.size()), "count");
    rep.metric("harness.cpu_probe_ns", cpu_probe_ns(), "ns");
    for (const char* layer : {"net", "event", "sequential", "spectre", "shard", "harness"})
        rep.metric(std::string(layer) + ".self_share", layer_self[layer] / wall, "ratio");
    rep.metric("trace.coverage", covered / wall, "ratio");
    rep.metric("trace.overhead_ratio", median(traced_wall) / median(plain_wall), "ratio");

    // The server stamps arrivals only on sessions with socket ingest, so on
    // hub-fanout (subscriber result streams) this histogram stays empty.
    std::printf("diag: server.result_latency_ns_p50=%.1f over %.0f results\n",
                sc.quantile("result_latency_ns", 0.5), sc.get("result_latency_ns_count"));
    const std::string path = trace_path(w);
    tr.write(path);
    std::printf("diag: %zu spans written to %s; median traced wall %.3f ms, untraced %.3f ms\n",
                tr.spans().size(), path.c_str(), median(traced_wall) * 1e-6,
                median(plain_wall) * 1e-6);
    rep.print();
    return 0;
}

}  // namespace cepbench
