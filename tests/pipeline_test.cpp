// CallPipeline's exactly-once gate, table-driven: every session state
// (sessionless, alive, expired, evicted, revived with a fence above the
// call id) x fresh/retried attempt x retry-cache state (absent, fresh,
// in-progress, completed) must produce the documented verdict and move
// exactly the matching counter among sessions_rejected, dedup_hits and
// dedup_in_flight.
#include <gtest/gtest.h>

#include <string>

#include "rpc/pipeline.hpp"

namespace rpcoib {
namespace {

using rpc::CallPipeline;

struct FakeCall {
  sim::Time enqueued = 0;
};
using Pipeline = CallPipeline<FakeCall>;
using Verdict = Pipeline::Verdict;

enum class SessionState { kSessionless, kAlive, kExpired, kEvicted, kRevivedAboveCall };
enum class CacheState { kAbsent, kFresh, kInProgress, kCompleted };

const char* name(SessionState s) {
  switch (s) {
    case SessionState::kSessionless: return "sessionless";
    case SessionState::kAlive: return "alive";
    case SessionState::kExpired: return "expired";
    case SessionState::kEvicted: return "evicted";
    case SessionState::kRevivedAboveCall: return "revived";
  }
  return "?";
}

const char* name(CacheState c) {
  switch (c) {
    case CacheState::kAbsent: return "no-cache";
    case CacheState::kFresh: return "fresh";
    case CacheState::kInProgress: return "in-progress";
    case CacheState::kCompleted: return "completed";
  }
  return "?";
}

constexpr std::uint64_t kSid = 42;
constexpr std::uint64_t kOtherSid = 43;
constexpr std::uint64_t kConnId = 7;
constexpr std::uint64_t kCallId = 10;
constexpr sim::Dur kLease = sim::micros(100);

/// The rule DESIGN.md §13 states, written out independently of decide().
Verdict::Kind expected(SessionState s, bool retried, CacheState c) {
  if (retried && (s == SessionState::kExpired || s == SessionState::kEvicted)) {
    return Verdict::kRejectSession;
  }
  // Re-opened above the retried id: a cache miss proves nothing. Without a
  // cache there is no dedup promise to break, so the call just runs.
  if (retried && s == SessionState::kRevivedAboveCall && c == CacheState::kFresh) {
    return Verdict::kRejectSession;
  }
  if (c == CacheState::kInProgress) return Verdict::kDropInFlight;
  if (c == CacheState::kCompleted) return Verdict::kReplay;
  return Verdict::kExecute;
}

struct Case {
  SessionState session;
  bool retried;
  CacheState cache;
};

class DecideTable : public ::testing::TestWithParam<Case> {};

TEST_P(DecideTable, VerdictAndCounters) {
  const Case& c = GetParam();
  sim::Scheduler sched;
  rpc::OverloadConfig ocfg;
  ocfg.retry_cache_entries = c.cache == CacheState::kAbsent ? 0 : 64;
  rpc::SessionConfig scfg;
  scfg.enabled = true;
  scfg.lease = kLease;
  scfg.table_cap = 1;
  static const std::string kProto = "p";
  Pipeline p(sched, 0, ocfg, scfg, [](const FakeCall&) -> const std::string& { return kProto; });

  // Session state first (touches purge the cache of dropped sessions).
  std::uint64_t sid = kSid;
  sim::Time now = sim::micros(1);
  switch (c.session) {
    case SessionState::kSessionless:
      sid = 0;
      break;
    case SessionState::kAlive:
      p.touch_session(kSid, false, 1, 0);
      break;
    case SessionState::kExpired:
      p.touch_session(kSid, false, 1, 0);
      now = kLease + sim::micros(1);
      break;
    case SessionState::kEvicted:
      p.touch_session(kSid, false, 1, 0);
      p.touch_session(kOtherSid, false, 1, sim::micros(1));  // table_cap 1
      ASSERT_EQ(p.stats().sessions_evicted, 1u);
      now = sim::micros(2);
      break;
    case SessionState::kRevivedAboveCall:
      p.touch_session(kSid, false, 1, 0);
      // Expired, then re-opened by a fresh call whose id fences kCallId.
      p.touch_session(kSid, false, kCallId + 5, kLease + sim::micros(1));
      ASSERT_EQ(p.stats().sessions_expired, 1u);
      now = kLease + sim::micros(2);
      break;
  }
  const std::uint64_t owner = sid != 0 ? sid : kConnId;

  // Retry-cache state for <owner, kCallId>, planted through the gate itself
  // (a sessionless fresh decide registers the call in progress).
  const net::Bytes frame{1, 2, 3, 4};
  if (c.cache == CacheState::kInProgress || c.cache == CacheState::kCompleted) {
    ASSERT_EQ(p.decide(owner, 0, kCallId, false, now).kind, Verdict::kExecute);
  }
  if (c.cache == CacheState::kCompleted) p.complete(owner, kCallId, frame);

  const rpc::RpcStats before = p.stats();
  const Verdict v = p.decide(owner, sid, kCallId, c.retried, now);
  const Verdict::Kind want = expected(c.session, c.retried, c.cache);
  EXPECT_EQ(v.kind, want);
  const rpc::RpcStats& after = p.stats();
  EXPECT_EQ(after.sessions_rejected - before.sessions_rejected,
            want == Verdict::kRejectSession ? 1u : 0u);
  EXPECT_EQ(after.dedup_hits - before.dedup_hits, want == Verdict::kReplay ? 1u : 0u);
  EXPECT_EQ(after.dedup_in_flight - before.dedup_in_flight,
            want == Verdict::kDropInFlight ? 1u : 0u);
  if (want == Verdict::kReplay) {
    ASSERT_NE(v.frame, nullptr);
    EXPECT_EQ(*v.frame, frame);
  } else {
    EXPECT_EQ(v.frame, nullptr);
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (SessionState s : {SessionState::kSessionless, SessionState::kAlive, SessionState::kExpired,
                         SessionState::kEvicted, SessionState::kRevivedAboveCall}) {
    for (bool retried : {false, true}) {
      for (CacheState c : {CacheState::kAbsent, CacheState::kFresh, CacheState::kInProgress,
                           CacheState::kCompleted}) {
        out.push_back({s, retried, c});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(CallPipeline, DecideTable, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           std::string n = std::string(name(info.param.session)) + "_" +
                                           (info.param.retried ? "retried" : "fresh") + "_" +
                                           name(info.param.cache);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// A fresh attempt executes and registers itself: its in-flight duplicate is
// dropped, and once completed every later attempt replays the frame.
TEST(CallPipeline, FreshExecutionThenDuplicateThenReplay) {
  sim::Scheduler sched;
  rpc::OverloadConfig ocfg;
  ocfg.retry_cache_entries = 8;
  static const std::string kProto = "p";
  Pipeline p(sched, 0, ocfg, rpc::SessionConfig{},
             [](const FakeCall&) -> const std::string& { return kProto; });
  EXPECT_EQ(p.decide(kConnId, 0, 1, false, 0).kind, Verdict::kExecute);
  EXPECT_EQ(p.decide(kConnId, 0, 1, true, 0).kind, Verdict::kDropInFlight);
  p.complete(kConnId, 1, net::Bytes{9});
  EXPECT_EQ(p.decide(kConnId, 0, 1, true, 0).kind, Verdict::kReplay);
  // A shed attempt is forgotten, so its retry executes fresh.
  EXPECT_EQ(p.decide(kConnId, 0, 2, false, 0).kind, Verdict::kExecute);
  p.forget(kConnId, 2);
  EXPECT_EQ(p.decide(kConnId, 0, 2, true, 0).kind, Verdict::kExecute);
  EXPECT_EQ(p.stats().dedup_hits, 1u);
  EXPECT_EQ(p.stats().dedup_in_flight, 1u);
}

// With sessions disabled a session id is ignored: no table rows, no
// rejections, whatever the lease would have said.
TEST(CallPipeline, SessionsDisabledNeverTouchOrReject) {
  sim::Scheduler sched;
  static const std::string kProto = "p";
  Pipeline p(sched, 0, rpc::OverloadConfig{}, rpc::SessionConfig{},
             [](const FakeCall&) -> const std::string& { return kProto; });
  p.touch_session(kSid, false, 1, 0);
  EXPECT_EQ(p.stats().sessions_opened, 0u);
  EXPECT_EQ(p.decide(kSid, kSid, 1, true, sim::seconds(3600)).kind, Verdict::kExecute);
  EXPECT_EQ(p.stats().sessions_rejected, 0u);
}

}  // namespace
}  // namespace rpcoib
