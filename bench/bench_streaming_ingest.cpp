// E-stream — streaming ingestion: ingest-while-detect vs
// materialize-then-process.
//
// The paper's middleware starts detecting the moment events arrive (§4.1);
// the pre-streaming repository had to materialize the whole store first. This
// bench measures the end-to-end cost of both modes on SpectreRuntime (wall
// time from "client starts sending" to "all complex events emitted") for
// k ∈ {1,2,4,8} operator instances, and emits one JSON line per row next to
// the table for scripts.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_workloads.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "queries/paper_queries.hpp"
#include "spectre/runtime.hpp"

using namespace spectre;

namespace {

std::unique_ptr<model::CompletionModel> model_for(const detect::CompiledQuery& cq) {
    return harness::paper_markov(cq.min_length());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Source priced like the TCP path: every next() pays the wire encode+decode
// round trip (frame bytes + vocab lookups), so ingestion has the real
// per-event cost the deployment pays — the cost streaming mode overlaps with
// detection and materialize mode pays up front.
class DecodingStream final : public event::EventStream {
public:
    DecodingStream(const std::vector<event::Event>& events, const data::StockVocab& vocab)
        : events_(&events), vocab_(&vocab) {}

    std::optional<event::Event> next() override {
        if (pos_ >= events_->size()) return std::nullopt;
        buffer_.clear();
        net::encode(net::to_wire((*events_)[pos_++], *vocab_), buffer_);
        std::size_t offset = 0;
        const auto q = net::decode(buffer_, offset);
        return net::from_wire(*q, *vocab_);
    }

private:
    const std::vector<event::Event>* events_;
    const data::StockVocab* vocab_;
    std::vector<std::uint8_t> buffer_;
    std::size_t pos_ = 0;
};

}  // namespace

int main() {
    harness::print_header("E-stream", "ingest-while-detect vs materialize-then-process");

    const std::uint64_t events_n = bench::scaled(12'000);
    const std::uint64_t ws = 800;
    const int q_size = 8;
    const std::uint64_t seeds[] = {42, 43};

    const auto vocab = bench::fresh_vocab();
    const auto query = queries::make_q1(vocab, queries::Q1Params{.q = q_size, .ws = ws});
    const auto cq = detect::CompiledQuery::compile(query);

    harness::Table table({"mode", "k", "throughput (candlestick)", "overlap gain"});
    std::vector<harness::JsonLine> json_rows;

    for (const int k : {1, 2, 4, 8}) {
        core::RuntimeConfig cfg;
        cfg.splitter.instances = k;

        // One metrics scope per row: the streaming runs bind this shard, so
        // the splitter-cycle histogram below covers exactly this k's seeds.
        obs::Registry obs_registry;
        const obs::ShardPtr obs_shard = obs_registry.make_shard();

        std::vector<double> batch_eps, stream_eps, decode_secs, feed_secs;
        std::vector<double> wasted_events;
        for (const auto seed : seeds) {
            data::NyseSynthConfig gen;
            gen.events = events_n;
            gen.symbols = 200;
            gen.up_prob = 0.55;
            gen.seed = seed;
            const auto events = data::generate_nyse(vocab, gen);

            // Materialize-then-process: the old pipeline shape — drain the
            // whole stream into the store, then start the engines. The decode
            // phase runs alone here; its wall time is the feeder-stall
            // baseline the streaming feeder is compared against.
            {
                const auto t0 = std::chrono::steady_clock::now();
                event::EventStore store;
                DecodingStream src(events, vocab);
                store.append_all(src);
                decode_secs.push_back(seconds_since(t0));
                core::SpectreRuntime rt(&store, &cq, cfg, model_for(cq));
                (void)rt.run();
                batch_eps.push_back(static_cast<double>(events.size()) / seconds_since(t0));
            }

            // Ingest-while-detect: the feeder drains the same stream into the
            // store while the splitter and instances are already running.
            {
                const auto t0 = std::chrono::steady_clock::now();
                event::EventStore store;
                DecodingStream src(events, vocab);
                core::SpectreRuntime rt(&store, &cq, cfg, model_for(cq));
                if (obs::enabled()) rt.bind_obs(obs_shard.get());
                const auto rr = rt.run(src);
                stream_eps.push_back(static_cast<double>(events.size()) / seconds_since(t0));
                feed_secs.push_back(rr.feed_seconds);
                wasted_events.push_back(
                    static_cast<double>(rr.sched.speculation_wasted_events));
            }
        }

        const double batch_med = util::percentile(batch_eps, 50);
        const double stream_med = util::percentile(stream_eps, 50);
        const double gain = batch_med > 0 ? stream_med / batch_med : 0.0;
        const double decode_med = util::percentile(decode_secs, 50);
        const double feed_med = util::percentile(feed_secs, 50);
        // Feeder stall factor: how much longer the feeder took next to a
        // running engine than decoding alone. ≈1 = detection overlapped for
        // free; ≫1 = detection starved the feeder of CPU (DESIGN.md §6).
        const double feed_stall = decode_med > 0 ? feed_med / decode_med : 0.0;

        table.row({"materialize_then_process", std::to_string(k),
                   harness::fmt_candle(batch_eps), "1.0x"});
        table.row({"ingest_while_detect", std::to_string(k),
                   harness::fmt_candle(stream_eps),
                   harness::fmt_double(gain, 2) + "x (feed stall " +
                       harness::fmt_double(feed_stall, 2) + "x)"});

        json_rows.emplace_back(harness::JsonLine("E-stream")
                                   .field("mode", "materialize_then_process")
                                   .field("k", k)
                                   .field("events", events_n)
                                   .field("eps_p50", batch_med)
                                   .field("decode_seconds_p50", decode_med));
        json_rows.emplace_back(harness::JsonLine("E-stream")
                                   .field("mode", "ingest_while_detect")
                                   .field("k", k)
                                   .field("events", events_n)
                                   .field("eps_p50", stream_med)
                                   .field("overlap_gain", gain)
                                   .field("feed_seconds_p50", feed_med)
                                   .field("feed_stall", feed_stall)
                                   .field("speculation_wasted_events_p50",
                                          util::percentile(wasted_events, 50))
                                   // Registry histogram (§12), nanoseconds; 0
                                   // when SPECTRE_OBS_OFF=1 (nothing bound).
                                   .field("splitter_cycle_ns_p50",
                                          obs_registry.snapshot().quantile(
                                              obs::Series{obs::sid::kSplitterCycleNs},
                                              0.50)));
    }

    table.print();
    std::printf("\n");
    for (const auto& row : json_rows) row.print();
    std::printf(
        "\nexpected shape: ingest_while_detect >= 1.0x on multicore — detection\n"
        "overlaps the ingestion (decode) time instead of waiting for the full\n"
        "store. On a single core the modes tie (same total work, no overlap\n"
        "capacity); the streaming mode's win there is latency, not throughput:\n"
        "early windows retire while the tail of the stream is still arriving.\n"
        "feed stall ≈ 1.0x means the feeder decoded at full speed next to the\n"
        "engine; values well above 1 would mean detection is starving the\n"
        "feeder of CPU (DESIGN.md §6).\n");
    return 0;
}
