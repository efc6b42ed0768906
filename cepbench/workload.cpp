#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "data/nyse_synth.hpp"
#include "data/stock.hpp"
#include "detect/compiled_query.hpp"
#include "harness/oracle.hpp"
#include "query/parser.hpp"
#include "sequential/seq_engine.hpp"

using namespace spectre;

namespace cepbench {

namespace {

// The three E-server queries the hub-fanout subscribers run.
const char* kHubQueries[] = {
    "PATTERN (R1 R2) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open "
    "WITHIN 40 EVENTS FROM EVERY 10 EVENTS CONSUME ALL",
    "PATTERN (R1 R2 R3) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open, "
    "R3 AS R3.close > R3.open WITHIN 30 EVENTS FROM EVERY 10 EVENTS CONSUME ALL "
    "EMIT gain = R3.close - R1.open",
    "PATTERN (F1 F2) DEFINE F1 AS F1.close < F1.open, F2 AS F2.close < F2.open "
    "WITHIN 24 EVENTS FROM EVERY 8 EVENTS CONSUME ALL",
};

std::vector<Workload> build_workloads() {
    std::vector<Workload> ws;
    {
        // Spectre does > 95% of the work here, so every speculation change
        // shows. Its cost per event grows along the stream, so the length is
        // fixed, and the rate keeps the costly end of the stream well below
        // what one worker can take (README.md, Workloads).
        Workload w;
        w.name = "q1-spectre";
        w.sessions = {{"standalone", q1_text(), 3, 0}};
        w.events = 6'000;
        w.rate_eps = 1'500;
        w.replay_batch = 1;
        ws.push_back(std::move(w));
    }
    {
        // The stream is decoded once; egress, chunk pins, hub wakeups and
        // the compile cache carry the load. Spectre is bypassed.
        Workload w;
        w.name = "hub-fanout";
        w.sessions = {{"publish", "", 0, 0}};
        for (const char* q : kHubQueries) w.sessions.push_back({"subscribe", q, 0, 0});
        w.events = 300'000;
        w.rate_eps = 100'000;
        w.replay_batch = 32;
        ws.push_back(std::move(w));
    }
    {
        // The only workload where one session keeps more than one pool
        // worker busy: router, lanes and merger are on the critical path.
        // The rate is about a quarter of the flood rate.
        Workload w;
        w.name = "sharded-skew";
        w.sessions = {{"standalone", shard_query_text(), 0, 4}};
        w.events = 300'000;
        w.rate_eps = 150'000;
        w.replay_batch = 32;
        w.partitioned = true;
        ws.push_back(std::move(w));
    }
    return ws;
}

std::vector<net::WireQuote> to_wire(const std::vector<event::Event>& events,
                                    const data::StockVocab& vocab) {
    std::vector<net::WireQuote> wire;
    wire.reserve(events.size());
    for (const auto& e : events) wire.push_back(net::to_wire(e, vocab));
    return wire;
}

double ns_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = build_workloads();
    return all;
}

const Workload* find_workload(const std::string& name) {
    for (const auto& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

std::string q1_text() {
    constexpr int q = 8;
    std::string leaders;
    for (const auto& s : data::leader_symbol_names())
        leaders += (leaders.empty() ? "'" : ",'") + s + "'";
    std::string pattern = "MLE";
    std::string defs = "MLE AS SYMBOL IN (" + leaders + ") AND MLE.close > MLE.open";
    for (int i = 1; i <= q; ++i) {
        const std::string re = "RE" + std::to_string(i);
        pattern += " " + re;
        defs += ", " + re + " AS " + re + ".close > " + re + ".open";
    }
    return "PATTERN (" + pattern + ") DEFINE " + defs +
           " WITHIN 800 EVENTS FROM MLE CONSUME ALL";
}

std::string shard_query_text() {
    return "PATTERN (R1 R2 R3) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open, "
           "R3 AS R3.close > R3.open WITHIN 24 EVENTS FROM EVERY 6 EVENTS "
           "PARTITION BY SUBJECT CONSUME ALL EMIT gain = R3.close - R1.open";
}

std::vector<net::WireQuote> make_stream(const Workload& w, std::uint64_t seed) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    data::NyseSynthConfig cfg;
    cfg.events = w.events;
    cfg.up_prob = 0.55;
    cfg.seed = seed;
    if (w.name == "hub-fanout") {
        cfg.symbols = 100;
        return to_wire(data::generate_nyse(vocab, cfg), vocab);
    }
    if (w.name != "sharded-skew") {
        cfg.symbols = 200;
        return to_wire(data::generate_nyse(vocab, cfg), vocab);
    }
    // E-shard-skew shape: a single-symbol stream interleaved 4:1 into a
    // 200-symbol background, so one key carries about 80% of the events.
    data::NyseSynthConfig hot = cfg, cold = cfg;
    hot.events = (w.events * 4) / 5;
    hot.symbols = 1;
    cold.events = w.events - hot.events;
    cold.symbols = 200;
    cold.seed = seed + 1;
    const auto h = data::generate_nyse(vocab, hot);
    const auto c = data::generate_nyse(vocab, cold);
    std::vector<event::Event> mixed;
    mixed.reserve(w.events);
    std::size_t hi = 0, ci = 0;
    while (hi < h.size() || ci < c.size()) {
        for (int r = 0; r < 4 && hi < h.size(); ++r) mixed.push_back(h[hi++]);
        if (ci < c.size()) mixed.push_back(c[ci++]);
    }
    return to_wire(mixed, vocab);
}

Reference reference_run(const std::string& query_text, bool partitioned,
                        const std::vector<net::WireQuote>& wire) {
    const auto vocab = data::StockVocab::create(std::make_shared<event::Schema>());
    const auto cq = detect::CompiledQuery::compile(query::parse_query(query_text, vocab.schema));
    Reference ref;
    std::uint32_t arrival = 0;
    double append_ns = 0, drain_ns = 0;

    // Unpartitioned: one store and one stepper, as a session runs it.
    // Partitioned: one lane per key, in the order reference_partitioned_run
    // uses; the key is the subject (PARTITION BY SUBJECT), and the oracle
    // check below rejects any other. Either way the engine drains to
    // quiescence after every arrival.
    const auto sink = [&ref, &arrival](event::ComplexEvent&& ce) {
        ref.results.push_back(std::move(ce));
        ref.det.push_back(arrival);
    };
    const auto timed_drain = [&drain_ns](sequential::SeqStepper& stepper) {
        const auto t0 = std::chrono::steady_clock::now();
        while (stepper.drain(~std::size_t{0})) {
        }
        drain_ns += ns_since(t0);
    };
    const auto last_arrival = [&] {
        arrival = wire.empty() ? 0 : static_cast<std::uint32_t>(wire.size() - 1);
    };

    if (!partitioned) {
        event::EventStore store;
        sequential::SeqStepper stepper(&cq, &store, sink);
        for (const auto& q : wire) {
            event::Event e = net::from_wire(q, vocab);
            const auto t0 = std::chrono::steady_clock::now();
            store.append(std::move(e));
            append_ns += ns_since(t0);
            timed_drain(stepper);
            ++arrival;
        }
        last_arrival();
        store.close();
        timed_drain(stepper);
    } else {
        struct Lane {
            event::MappedStore store;
            std::unique_ptr<sequential::SeqStepper> stepper;
        };
        std::vector<std::unique_ptr<Lane>> lanes;
        std::unordered_map<event::SubjectId, std::size_t> index;
        for (const auto& q : wire) {
            event::Event e = net::from_wire(q, vocab);
            const auto [it, fresh] = index.try_emplace(e.subject, lanes.size());
            if (fresh) {
                auto lane = std::make_unique<Lane>();
                Lane* lp = lane.get();
                lane->stepper = std::make_unique<sequential::SeqStepper>(
                    &cq, &lp->store.store(), [lp, &sink](event::ComplexEvent&& ce) {
                        lp->store.translate(ce.constituents);
                        sink(std::move(ce));
                    });
                lanes.push_back(std::move(lane));
            }
            Lane& lane = *lanes[it->second];
            const auto t0 = std::chrono::steady_clock::now();
            lane.store.append_mapped(std::move(e), arrival);
            append_ns += ns_since(t0);
            timed_drain(*lane.stepper);
            ++arrival;
        }
        last_arrival();
        for (const auto& lane : lanes) {
            lane->store.close();
            timed_drain(*lane->stepper);
        }
    }
    const double n = wire.empty() ? 1.0 : static_cast<double>(wire.size());
    ref.append_ns_per_event = append_ns / n;
    ref.drain_ns_per_event = drain_ns / n;

    // The table is only as good as its reference: it must reproduce the
    // repo's oracle exactly.
    const auto oracle = partitioned ? harness::partitioned_oracle(query_text, wire)
                                    : harness::sequential_oracle(query_text, wire);
    if (!harness::results_identical(oracle, ref.results))
        throw std::runtime_error("reference run disagrees with the oracle");
    return ref;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
    Inputs in;
    in.wire = make_stream(w, seed);
    in.frame_end.reserve(in.wire.size());
    for (const auto& q : in.wire) {
        net::encode_frame(net::SessionFrame{q}, in.data_bytes);
        in.frame_end.push_back(in.data_bytes.size());
    }
    bool first = true;
    for (const auto& s : w.sessions) {
        if (s.query.empty()) {
            in.expected.emplace_back();
            continue;
        }
        in.expected.push_back(reference_run(s.query, w.partitioned, in.wire));
        if (first) in.append_ns_per_event = in.expected.back().append_ns_per_event;
        first = false;
        in.drain_ns_per_event += in.expected.back().drain_ns_per_event;
    }
    return in;
}

std::size_t count_failed(const std::vector<event::ComplexEvent>& expected,
                         const std::vector<event::ComplexEvent>& got) {
    std::size_t failed = 0;
    for (std::size_t j = 0; j < expected.size(); ++j)
        if (j >= got.size() || !(got[j] == expected[j])) ++failed;
    if (got.size() > expected.size()) failed += got.size() - expected.size();
    return std::min(failed, expected.size());
}

}  // namespace cepbench
