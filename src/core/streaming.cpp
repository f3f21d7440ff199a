#include "core/streaming.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace mlsim::core {

StreamingResult simulate_stream(LatencyPredictor& predictor,
                                trace::LabeledTraceStream& stream,
                                std::uint64_t total_instructions,
                                std::size_t context_length,
                                std::size_t chunk_size,
                                const CancelToken* cancel,
                                PredictSink* batch_sink) {
  check(context_length > 0, "context length must be positive");
  check(chunk_size > 0, "chunk size must be positive");
  StreamingResult res;
  if (total_instructions == 0) return res;

  const std::size_t rows = context_length + 1;
  RetireRing ring(context_length);
  ring.reset(0);

  trace::EncodedTrace buf(stream.benchmark());
  std::size_t local = 0;  // next buffer row to simulate
  std::vector<std::int32_t> sink_window;  // materialised window for the sink

  MLSIM_TRACE_SPAN("stream/run");
  while (res.instructions < total_instructions) {
    const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
        chunk_size, total_instructions - res.instructions));
    {
      MLSIM_TRACE_SPAN("stream/fill");
      MLSIM_HIST_TIMER(obs::names::kStreamFillNs);
      stream.fill(buf, want);
    }
    MLSIM_GAUGE_SET(obs::names::kStreamRowsResident,
                    static_cast<double>(buf.size()));

    {
      MLSIM_TRACE_SPAN("stream/predict");
      MLSIM_HIST_TIMER(obs::names::kStreamPredictNs);
      for (; local < buf.size(); ++local) {
        if (cancel != nullptr) cancel->check();
        const LazyWindow lw = ring.view(buf, local);
        LatencyPrediction p;
        if (batch_sink != nullptr) {
          lw.materialize(sink_window);
          p = batch_sink->predict_via(sink_window.data(), rows,
                                      res.instructions);
        } else {
          p = predictor.predict_lazy(lw);
        }
        ring.retire(p);
        res.predicted_cycles += p.fetch;
        res.truth_cycles += buf.targets(local)[0];
        ++res.instructions;
      }
    }
    MLSIM_COUNTER_ADD(obs::names::kStreamChunks, 1);

    // Compact: keep only the context window the next view reads. The ring
    // follows program order by itself, so buffer rows may be renumbered.
    if (buf.size() > context_length) {
      const std::size_t drop = buf.size() - context_length;
      buf = buf.slice(drop, buf.size());
      local -= drop;
      MLSIM_GAUGE_SET(obs::names::kStreamRowsResident,
                      static_cast<double>(buf.size()));
    }
  }
  MLSIM_COUNTER_ADD(obs::names::kStreamInstructions, res.instructions);
  return res;
}

}  // namespace mlsim::core
