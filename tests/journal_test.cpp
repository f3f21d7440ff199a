// Crash-safe coordination (docs/RESILIENCE.md "Crash-safe coordination"):
// the durable run journal's record/replay round trip and fault taxonomy
// (torn tail, bit flip, duplicate results, strict vs lenient), graceful
// drain on a wake_fd byte, restart-resume from the journal, and — in the
// fork-based chaos tests — a SIGKILLed coordinator process restarted with
// --resume while its worker processes re-attach, with the merged CPI still
// bit-identical to the in-process engine.
//
// Fork-based tests are skipped under ThreadSanitizer, which cannot follow
// forks (same gate as dist_test.cpp).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/analytic_predictor.h"
#include "core/parallel_sim.h"
#include "core/shard.h"
#include "dist/coordinator.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "net/signal_pipe.h"
#include "net/socket.h"
#include "service/service.h"
#include "trace/trace.h"
#include "uarch/ground_truth.h"

#if defined(__SANITIZE_THREAD__)
#define MLSIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MLSIM_TSAN 1
#endif
#endif

namespace mlsim::dist {
namespace {

namespace fs = std::filesystem;

trace::EncodedTrace make_trace(const std::string& abbr, std::size_t n) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

core::ParallelSimOptions base_options(std::size_t parts, std::size_t gpus) {
  core::ParallelSimOptions o;
  o.num_subtraces = parts;
  o.num_gpus = gpus;
  o.context_length = 16;
  o.warmup = 16;
  o.post_error_correction = true;
  o.record_predictions = true;
  return o;
}

core::ParallelSimResult local_reference(const trace::EncodedTrace& tr,
                                        const core::ParallelSimOptions& o) {
  core::AnalyticPredictor pred;
  core::ParallelSimulator sim(pred, o);
  return sim.run(tr);
}

void expect_identical(const core::ParallelSimResult& a,
                      const core::ParallelSimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.corrected_instructions, b.corrected_instructions);
  EXPECT_EQ(a.warmup_instructions, b.warmup_instructions);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_EQ(a.predictions[i], b.predictions[i]) << "at " << i;
  }
}

std::thread worker_thread(std::uint16_t port, int heartbeat_ms = 50) {
  return std::thread([port, heartbeat_ms] {
    WorkerConfig cfg;
    cfg.port = port;
    cfg.heartbeat_ms = heartbeat_ms;
    cfg.reconnect_budget = 3;  // teardown-friendly: don't retry for seconds
    try {
      run_worker(cfg);
    } catch (const IoError&) {
      // Listener closed mid-reconnect; expected during teardown.
    }
  });
}

/// A scratch journal path unique to this process + test.
fs::path scratch_journal(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("mlsim_journal_" + tag + "_" +
                      std::to_string(::getpid()) + ".jrnl");
  std::error_code ec;
  fs::remove(p, ec);
  return p;
}

/// A Result frame payload as a worker would put it on the wire.
std::string result_frame(std::uint64_t session, std::uint64_t shard,
                         std::uint32_t attempt) {
  core::ShardOutcome outcome;
  return encode_result({session, shard, attempt}, outcome);
}

// ---- journal record/replay unit tests --------------------------------------

TEST(RunJournal, MissingFileReplaysAsNotFound) {
  const JournalReplay r =
      RunJournal::replay(scratch_journal("missing"), /*strict=*/false);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.open_run);
  EXPECT_EQ(r.results.size(), 0u);
}

TEST(RunJournal, RoundTripReplaysOpenRunWithResults) {
  const fs::path path = scratch_journal("roundtrip");
  RunConfig cfg;
  cfg.num_subtraces = 8;
  cfg.num_gpus = 4;
  {
    RunJournal j;
    j.open(path);
    ASSERT_TRUE(j.enabled());
    j.run_open(7, 0xfeedULL, 8, cfg);
    j.assign(7, 2, 0);
    j.result(7, result_frame(7, 2, 0));
    j.assign(7, 5, 0);
    j.result(7, result_frame(7, 5, 0));
  }  // no run-close: simulates a killed coordinator
  const JournalReplay r = RunJournal::replay(path, /*strict=*/true);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.open_run);
  EXPECT_EQ(r.session, 7u);
  EXPECT_EQ(r.fingerprint, 0xfeedULL);
  EXPECT_EQ(r.num_shards, 8u);
  EXPECT_EQ(r.config.num_subtraces, 8u);
  EXPECT_EQ(r.config.num_gpus, 4u);
  EXPECT_EQ(r.results.size(), 2u);
  EXPECT_EQ(r.results.count(2), 1u);
  EXPECT_EQ(r.results.count(5), 1u);
  EXPECT_EQ(r.records, 5u);
  EXPECT_EQ(r.dropped_bytes, 0u);
  fs::remove(path);
}

TEST(RunJournal, RunCloseClosesTheRunAndRecordsStatus) {
  const fs::path path = scratch_journal("close");
  {
    RunJournal j;
    j.open(path);
    j.run_open(3, 0xabcULL, 2, RunConfig{});
    j.result(3, result_frame(3, 0, 0));
    j.run_close(3, RunJournal::kStatusDrained);
  }
  const JournalReplay r = RunJournal::replay(path, /*strict=*/true);
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.open_run);
  EXPECT_EQ(r.close_status, RunJournal::kStatusDrained);
  EXPECT_EQ(r.results.size(), 1u);  // a drained run is still resumable
  fs::remove(path);
}

TEST(RunJournal, DuplicateResultRecordsAreIdempotent) {
  const fs::path path = scratch_journal("dup");
  {
    RunJournal j;
    j.open(path);
    j.run_open(9, 0x1ULL, 4, RunConfig{});
    j.result(9, result_frame(9, 1, 0));
    j.result(9, result_frame(9, 1, 1));  // re-delivery after a rejoin
  }
  const JournalReplay r = RunJournal::replay(path, /*strict=*/true);
  EXPECT_EQ(r.results.size(), 1u);
  EXPECT_EQ(r.duplicates, 1u);
  fs::remove(path);
}

TEST(RunJournal, TruncatedTailIsDroppedLenientlyAndFatalStrictly) {
  const fs::path path = scratch_journal("trunc");
  {
    RunJournal j;
    j.open(path);
    j.run_open(4, 0x2ULL, 4, RunConfig{});
    j.result(4, result_frame(4, 0, 0));
    j.result(4, result_frame(4, 1, 0));
  }
  // Tear the last record: everything before it must replay; the tail must
  // be dropped (lenient) or fatal (strict) — mirroring checkpoint modes.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 7);

  const JournalReplay lenient = RunJournal::replay(path, /*strict=*/false);
  EXPECT_TRUE(lenient.found);
  EXPECT_TRUE(lenient.open_run);
  EXPECT_EQ(lenient.results.size(), 1u);
  EXPECT_GT(lenient.dropped_bytes, 0u);

  EXPECT_THROW(RunJournal::replay(path, /*strict=*/true), CheckError);
  fs::remove(path);
}

TEST(RunJournal, TornTailIsCutBeforeAppending) {
  // A coordinator killed mid-write leaves a torn record; the restarted one
  // must append after the last intact record, or replay would stop at the
  // tear and never see the new records.
  const fs::path path = scratch_journal("torn_append");
  {
    RunJournal j;
    j.open(path);
    j.run_open(4, 0x4ULL, 4, RunConfig{});
    j.result(4, result_frame(4, 0, 0));
    j.result(4, result_frame(4, 1, 0));
  }
  fs::resize_file(path, fs::file_size(path) - 7);
  {
    RunJournal j;
    j.open(path);
    j.result(4, result_frame(4, 2, 0));
    j.run_close(4, RunJournal::kStatusComplete);
  }
  const JournalReplay r = RunJournal::replay(path, /*strict=*/true);
  EXPECT_FALSE(r.open_run);
  EXPECT_EQ(r.close_status, RunJournal::kStatusComplete);
  EXPECT_EQ(r.results.size(), 2u);  // shards 0 and 2; shard 1 was torn
  EXPECT_EQ(r.results.count(1), 0u);
  EXPECT_EQ(r.dropped_bytes, 0u);
  fs::remove(path);
}

TEST(RunJournal, BitFlippedRecordIsCaughtByTheChecksum) {
  const fs::path path = scratch_journal("flip");
  {
    RunJournal j;
    j.open(path);
    j.run_open(4, 0x3ULL, 4, RunConfig{});
    j.result(4, result_frame(4, 0, 0));
    j.result(4, result_frame(4, 1, 0));
  }
  // Flip one byte inside the *last* record's payload. The checksum rejects
  // the record; lenient replay keeps everything before it.
  const auto size = fs::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 3));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size - 3));
    f.write(&c, 1);
  }
  const JournalReplay lenient = RunJournal::replay(path, /*strict=*/false);
  EXPECT_TRUE(lenient.found);
  EXPECT_EQ(lenient.results.size(), 1u);
  EXPECT_GT(lenient.dropped_bytes, 0u);
  EXPECT_THROW(RunJournal::replay(path, /*strict=*/true), CheckError);
  fs::remove(path);
}

// ---- service lifecycle ------------------------------------------------------

TEST(ServiceLifecycle, HealthReportsServingThenDraining) {
  core::AnalyticPredictor primary, fallback;
  service::ServiceOptions so;
  so.num_workers = 1;
  so.queue_capacity = 2;
  service::SimulationService svc(primary, fallback, so);
  EXPECT_NE(svc.health_json().find("\"lifecycle\":\"serving\""),
            std::string::npos);
  svc.shutdown();
  EXPECT_NE(svc.health_json().find("\"lifecycle\":\"draining\""),
            std::string::npos);
}

// ---- graceful drain + resume (thread-based, TSan-safe) ---------------------

TEST(Drain, WakeByteDrainsRunAndJournalResumesIt) {
  const auto tr = make_trace("mcf", 60000);
  const auto opts = base_options(12, 12);  // 12 single-partition shards
  const auto local = local_reference(tr, opts);
  const fs::path path = scratch_journal("drain");

  int wake[2] = {-1, -1};
  ASSERT_EQ(::pipe(wake), 0);

  CoordinatorOptions co;
  co.min_workers = 2;
  co.heartbeat_timeout_ms = 30000;
  co.poll_ms = 10;
  co.journal_path = path;
  co.wake_fd = wake[0];
  co.drain_timeout_ms = 30000;  // generous: in-flight shards must finish
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w1 = worker_thread(coord->port());
  std::thread w2 = worker_thread(coord->port());

  // Request the drain once the run is demonstrably mid-flight.
  std::thread trigger([&coord, fd = wake[1]] {
    for (int i = 0; i < 3000; ++i) {
      if (coord->stats().shards_completed >= 3) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const char byte = 1;
    ASSERT_EQ(::write(fd, &byte, 1), 1);
  });

  bool drained = false;
  try {
    (void)coord->run(tr, opts);
  } catch (const DrainError&) {
    drained = true;
  }
  trigger.join();
  ASSERT_TRUE(drained);
  EXPECT_TRUE(coord->drain_requested());
  EXPECT_NE(coord->cluster_json().find("\"lifecycle\":\"draining\""),
            std::string::npos);
  coord.reset();
  w1.join();
  w2.join();
  ::close(wake[0]);
  ::close(wake[1]);

  // The journal recorded a drained run-close and the completed shards.
  const JournalReplay after = RunJournal::replay(path, /*strict=*/true);
  ASSERT_TRUE(after.found);
  EXPECT_FALSE(after.open_run);
  EXPECT_EQ(after.close_status, RunJournal::kStatusDrained);
  const std::size_t replayed = after.results.size();
  EXPECT_GE(replayed, 3u);
  EXPECT_LT(replayed, 12u);  // pending shards were abandoned, not computed

  // Resume: a fresh coordinator replays the journal and only dispatches the
  // remainder; the merged result is still bit-identical.
  CoordinatorOptions rc;
  rc.min_workers = 2;
  rc.heartbeat_timeout_ms = 30000;
  rc.poll_ms = 10;
  rc.journal_path = path;
  rc.resume = true;
  auto resumed =
      std::make_unique<DistCoordinator>(net::TcpListener::bind(0), rc);
  std::thread w3 = worker_thread(resumed->port());
  std::thread w4 = worker_thread(resumed->port());
  const auto out = resumed->run(tr, opts);
  expect_identical(local, out);
  const CoordinatorStats st = resumed->stats();
  EXPECT_EQ(st.journal_replayed, replayed);
  EXPECT_EQ(st.cache_hits, replayed);  // replay feeds the result cache
  EXPECT_LE(st.shards_dispatched, 12u - replayed);
  resumed.reset();
  w3.join();
  w4.join();

  const JournalReplay final_state = RunJournal::replay(path, /*strict=*/true);
  EXPECT_FALSE(final_state.open_run);
  EXPECT_EQ(final_state.close_status, RunJournal::kStatusComplete);
  EXPECT_EQ(final_state.results.size(), 12u);  // self-contained last section
  fs::remove(path);
}

TEST(Drain, RunCompletingBeforeDeadlineReturnsNormally) {
  // A drain requested when every shard is already done (or finishes within
  // the window) must not throw: the run returns and only drain_requested()
  // tells the driver to exit with the drained code.
  const auto tr = make_trace("xz", 8000);
  const auto opts = base_options(4, 2);  // 2 shards
  const auto local = local_reference(tr, opts);

  int wake[2] = {-1, -1};
  ASSERT_EQ(::pipe(wake), 0);
  const char byte = 1;
  ASSERT_EQ(::write(wake[1], &byte, 1), 1);  // drain requested before t0

  CoordinatorOptions co;
  co.heartbeat_timeout_ms = 30000;
  co.poll_ms = 10;
  co.wake_fd = wake[0];
  co.drain_timeout_ms = 60000;
  auto coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(0), co);
  std::thread w = worker_thread(coord->port());

  core::ParallelSimResult out;
  bool threw = false;
  try {
    out = coord->run(tr, opts);
  } catch (const DrainError&) {
    threw = true;
  }
  coord.reset();
  w.join();
  ::close(wake[0]);
  ::close(wake[1]);
  // With the drain byte pre-posted, no shard is ever assigned, so the run
  // can only drain (in-flight = 0 → immediate finish) — unless the poll
  // raced the first assignment. Either outcome is contract-clean; what is
  // forbidden is a *successful* run that diverges.
  if (!threw) expect_identical(local, out);
}

// ---- worker reconnect budget ------------------------------------------------

TEST(WorkerBackoff, BudgetExhaustionIsTypedIoError) {
  // Nothing listens on this port: the worker must retry with backoff and
  // then give up with the typed budget error, not spin forever.
  net::TcpListener probe = net::TcpListener::bind(0);
  const std::uint16_t dead_port = probe.port();
  probe.close();

  WorkerConfig cfg;
  cfg.port = dead_port;
  cfg.reconnect_budget = 2;
  try {
    run_worker(cfg);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("reconnect budget exhausted"),
              std::string::npos);
  }
}

// ---- fork-based chaos tests --------------------------------------------------

#if !defined(MLSIM_TSAN)

/// Fork a real worker process with a deep reconnect budget (it must survive
/// the coordinator being SIGKILLed and restarted). The child never returns.
pid_t fork_worker(std::uint16_t port, int reconnect_budget = 80) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  WorkerConfig cfg;
  cfg.port = port;
  cfg.heartbeat_ms = 50;
  cfg.reconnect_budget = reconnect_budget;
  try {
    run_worker(cfg);
    _exit(0);
  } catch (...) {
    _exit(1);
  }
}

TEST(DrainProcess, SigtermDrainsCoordinatorWithDistinctExitCode) {
  const auto tr = make_trace("mcf", 120000);
  const auto opts = base_options(12, 12);
  const fs::path path = scratch_journal("sigterm");

  auto listener = std::make_unique<net::TcpListener>(net::TcpListener::bind(0));
  const std::uint16_t port = listener->port();
  const pid_t coord_pid = fork();
  if (coord_pid == 0) {
    // Child: a coordinator process wired exactly like the CLI — SignalPipe
    // as wake_fd, DrainError mapped to exit code 6.
    CoordinatorOptions co;
    co.min_workers = 1;
    co.heartbeat_timeout_ms = 30000;
    co.poll_ms = 10;
    co.journal_path = path;
    co.drain_timeout_ms = 30000;
    co.wake_fd = net::SignalPipe::install(7).fd();
    try {
      DistCoordinator coord(std::move(*listener), co);
      std::thread w = worker_thread(coord.port());
      try {
        (void)coord.run(tr, opts);
        w.join();
        _exit(0);
      } catch (const DrainError&) {
        w.join();
        _exit(6);
      }
    } catch (...) {
      _exit(1);
    }
  }
  ASSERT_GT(coord_pid, 0);
  listener.reset();

  // Let the run get demonstrably going (journaled results), then SIGTERM.
  bool started = false;
  for (int i = 0; i < 3000; ++i) {
    if (RunJournal::replay(path, false).results.size() >= 2) {
      started = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(started);
  ASSERT_EQ(kill(coord_pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(coord_pid, &status, 0), coord_pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 6);

  // Drain left the journal closed with kStatusDrained and partial results.
  const JournalReplay r = RunJournal::replay(path, /*strict=*/true);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.open_run);
  EXPECT_EQ(r.close_status, RunJournal::kStatusDrained);
  EXPECT_GE(r.results.size(), 2u);
  fs::remove(path);
}

TEST(DrainProcess, SecondSignalForcesImmediateExit) {
  int ready[2] = {-1, -1};
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: handlers installed, then "hung" — a drain that never finishes.
    (void)net::SignalPipe::install(7);
    const char byte = 1;
    (void)!::write(ready[1], &byte, 1);
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(pid, 0);
  char byte = 0;
  ASSERT_EQ(::read(ready[0], &byte, 1), 1);  // handlers are live
  ::close(ready[0]);
  ::close(ready[1]);

  ASSERT_EQ(kill(pid, SIGTERM), 0);  // first: politely ignored by the child
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(kill(pid, SIGTERM), 0);  // second: in-handler _exit
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7);
}

TEST(DrainProcess, CoordinatorSigkillRestartResumeIsBitIdentical) {
  // The acceptance chaos scenario: SIGKILL the coordinator process mid-run
  // with live worker processes, restart it on the same port with --resume,
  // and require (a) the workers re-attach via Rejoin, (b) the merged CPI is
  // bit-identical, (c) zero journal-replayed shards are re-dispatched, and
  // (d) the replay hits count toward the result-cache hit metric.
  const auto tr = make_trace("mcf", 120000);
  const auto opts = base_options(12, 12);  // 12 single-partition shards
  const auto local = local_reference(tr, opts);
  const fs::path path = scratch_journal("chaos");

  auto listener = std::make_unique<net::TcpListener>(net::TcpListener::bind(0));
  const std::uint16_t port = listener->port();
  const pid_t coord_pid = fork();
  if (coord_pid == 0) {
    CoordinatorOptions co;
    co.min_workers = 2;
    co.heartbeat_timeout_ms = 30000;
    co.poll_ms = 10;
    co.journal_path = path;
    try {
      DistCoordinator coord(std::move(*listener), co);
      (void)coord.run(tr, opts);
      coord.shutdown_workers();
      _exit(0);
    } catch (...) {
      _exit(1);
    }
  }
  ASSERT_GT(coord_pid, 0);
  listener.reset();

  const pid_t wa = fork_worker(port);
  const pid_t wb = fork_worker(port);
  ASSERT_GT(wa, 0);
  ASSERT_GT(wb, 0);

  // Wait until several results are durably journaled, then SIGKILL — a real
  // process death at an arbitrary instant, no cleanup code runs.
  bool progressed = false;
  for (int i = 0; i < 3000; ++i) {
    if (RunJournal::replay(path, false).results.size() >= 3) {
      progressed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(progressed);
  ASSERT_EQ(kill(coord_pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(coord_pid, &status, 0), coord_pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // What the restarted coordinator will see.
  const JournalReplay before = RunJournal::replay(path, /*strict=*/false);
  ASSERT_TRUE(before.found);
  ASSERT_TRUE(before.open_run);  // died mid-run, no run-close
  const std::size_t replayed = before.results.size();
  ASSERT_GE(replayed, 3u);
  ASSERT_LT(replayed, 12u);

  // Restart on the same port (SO_REUSEADDR) so the orphaned workers'
  // reconnect loops find it, with --journal --resume.
  CoordinatorOptions rc;
  rc.min_workers = 1;
  rc.heartbeat_timeout_ms = 30000;
  rc.poll_ms = 10;
  rc.journal_path = path;
  rc.resume = true;
  std::unique_ptr<DistCoordinator> coord;
  for (int i = 0; i < 100; ++i) {
    try {
      coord = std::make_unique<DistCoordinator>(net::TcpListener::bind(port),
                                                rc);
      break;
    } catch (const IoError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_NE(coord, nullptr);

  const auto out = coord->run(tr, opts);
  expect_identical(local, out);
  const CoordinatorStats st = coord->stats();
  EXPECT_EQ(st.journal_replayed, replayed);
  EXPECT_EQ(st.cache_hits, replayed);  // replay hits count as cache hits
  EXPECT_LE(st.shards_dispatched, 12u - replayed);  // no re-dispatch
  EXPECT_GE(st.workers_rejoined, 1u);  // at least one worker re-attached

  coord.reset();
  EXPECT_EQ(waitpid(wa, &status, 0), wa);
  EXPECT_EQ(waitpid(wb, &status, 0), wb);

  const JournalReplay final_state = RunJournal::replay(path, /*strict=*/true);
  EXPECT_FALSE(final_state.open_run);
  EXPECT_EQ(final_state.close_status, RunJournal::kStatusComplete);
  EXPECT_EQ(final_state.results.size(), 12u);
  fs::remove(path);
}

#endif  // !MLSIM_TSAN

}  // namespace
}  // namespace mlsim::dist
