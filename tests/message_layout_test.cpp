// Layout goldens for every HDFS, MapReduce and HBase protocol message.
//
// Round-trip tests cannot see a layout change made the same way on both
// sides; these goldens can. Each message is serialized through the
// client-side Algorithm-1 buffer and compared with recorded bytes and with
// the modeled cost both directions accrue (the per-field charges behind
// Table I and Fig. 3). A layout or cost change fails here until its golden
// is re-recorded on purpose.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hbase/hbase.hpp"
#include "hbase/hmaster.hpp"
#include "hdfs/types.hpp"
#include "mapred/types.hpp"
#include "rpc/buffers.hpp"

namespace rpcoib {
namespace {

const cluster::CostModel kCm{};

struct Layout {
  std::string name;
  std::string hex;          // serialized bytes
  sim::Dur write_cost = 0;  // DataOutputBuffer::take_accrued() after write()
  sim::Dur read_cost = 0;   // DataInputBuffer::take_accrued() after read_fields()
  sim::Dur read_alloc = 0;  // its allocation share (take_alloc_accrued())
};

std::string to_hex(net::ByteSpan b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (net::Byte x : b) {
    s += kDigits[x >> 4];
    s += kDigits[x & 0xF];
  }
  return s;
}

template <typename T>
Layout layout_of(const std::string& name, const T& msg) {
  Layout l;
  l.name = name;
  rpc::DataOutputBuffer out(kCm);
  msg.write(out);
  l.write_cost = out.take_accrued();
  l.hex = to_hex(out.data());

  T back;
  rpc::DataInputBuffer in(kCm, out.data());
  back.read_fields(in);
  EXPECT_EQ(in.remaining(), 0u) << name << ": trailing bytes after read_fields";
  l.read_alloc = in.take_alloc_accrued();
  l.read_cost = in.take_accrued();

  rpc::DataOutputBuffer again(kCm);
  back.write(again);
  EXPECT_EQ(to_hex(again.data()), l.hex) << name << ": decode then encode moved a byte";
  return l;
}

// --- one populated instance per message --------------------------------------
// Values are picked to reach every encoding branch: one- and multi-byte
// vints, negative vints, u64 ids sent as vlongs above INT64_MAX, empty and
// non-empty lists, and both arms of each presence flag.

hdfs::Block block(hdfs::BlockId id, std::uint64_t n) { return hdfs::Block{id, n}; }

hdfs::LocatedBlock located(hdfs::BlockId id) {
  hdfs::LocatedBlock lb;
  lb.block = block(id, 64ULL << 20);
  lb.locations = {3, 200, -5};
  return lb;
}

hdfs::FileStatus file_status(const std::string& path) {
  hdfs::FileStatus st;
  st.path = path;
  st.is_dir = false;
  st.length = 123456789;
  st.replication = 3;
  st.block_size = 64ULL << 20;
  st.modification_time = 1700000000123ULL;
  return st;
}

std::vector<Layout> hdfs_layouts() {
  std::vector<Layout> v;
  v.push_back(layout_of("Block", block(0x1122334455667788ULL, 4096)));
  v.push_back(layout_of("LocatedBlock", located(77)));
  v.push_back(layout_of("FileStatus", file_status("/data/part-00000")));
  v.push_back(layout_of("PathParam", hdfs::PathParam("/user/a/file", "DFSClient_7")));
  {
    hdfs::RenameParam p;
    p.src = "/tmp/a";
    p.dst = "/out/b";
    v.push_back(layout_of("RenameParam", p));
  }
  {
    hdfs::CreateParam p;
    p.path = "/out/part-1";
    p.client = "DFSClient_9";
    p.overwrite = false;
    p.replication = 2;
    p.block_size = 128ULL << 20;
    v.push_back(layout_of("CreateParam", p));
  }
  {
    hdfs::GetBlockLocationsParam p;
    p.path = "/in/file";
    p.offset = 4096;
    p.length = ~0ULL;
    v.push_back(layout_of("GetBlockLocationsParam", p));
  }
  {
    hdfs::LocatedBlocksResult r;
    r.file_length = 200ULL << 20;
    r.blocks = {located(1), located(2)};
    v.push_back(layout_of("LocatedBlocksResult", r));
  }
  {
    hdfs::LocatedBlockResult r;
    r.located = located(9);
    v.push_back(layout_of("LocatedBlockResult", r));
  }
  {
    hdfs::FileStatusResult r;
    r.exists = true;
    r.status = file_status("/x");
    v.push_back(layout_of("FileStatusResult", r));
    v.push_back(layout_of("FileStatusResult.absent", hdfs::FileStatusResult{}));
  }
  {
    hdfs::ListingResult r;
    r.entries = {file_status("/d/a"), file_status("/d/bb")};
    v.push_back(layout_of("ListingResult", r));
  }
  {
    hdfs::DatanodeRegistration p;
    p.id = 130;
    p.capacity_bytes = 2ULL << 40;
    v.push_back(layout_of("DatanodeRegistration", p));
  }
  {
    hdfs::HeartbeatParam p;
    p.id = 4;
    p.used_bytes = 5ULL << 30;
    p.remaining_bytes = 7ULL << 30;
    p.xceiver_count = 17;
    v.push_back(layout_of("HeartbeatParam", p));
  }
  {
    hdfs::HeartbeatResult r;
    r.command = 1;
    r.replicate_target = located(5);
    v.push_back(layout_of("HeartbeatResult", r));
    v.push_back(layout_of("HeartbeatResult.none", hdfs::HeartbeatResult{}));
  }
  {
    hdfs::BlockReceivedParam p;
    p.id = 6;
    p.block = block(99, 1000);
    v.push_back(layout_of("BlockReceivedParam", p));
  }
  {
    hdfs::BlockReportParam p;
    p.id = 7;
    p.blocks = {block(1, 10), block(2, 20), block(300, 64ULL << 20)};
    v.push_back(layout_of("BlockReportParam", p));
  }
  {
    hdfs::AddBlockParam p;
    p.path = "/out/part-2";
    p.client = "DFSClient_3";
    v.push_back(layout_of("AddBlockParam", p));
  }
  {
    hdfs::AbandonBlockParam p;
    p.path = "/out/part-3";
    p.client = "DFSClient_4";
    p.block = 123456;
    v.push_back(layout_of("AbandonBlockParam", p));
  }
  return v;
}

mapred::TaskAssignment assignment(mapred::TaskId task) {
  mapred::TaskAssignment a;
  a.job = 3;
  a.task = task;
  a.type = mapred::TaskType::kReduce;
  a.trace_id = 0xF00DCAFE12345678ULL;  // above INT64_MAX: a negative vlong
  a.span_id = 300;
  return a;
}

mapred::TaskReport report(mapred::TaskId task) {
  mapred::TaskReport r;
  r.job = 3;
  r.task = task;
  r.type = mapred::TaskType::kMap;
  r.progress = 0.625f;
  r.counters = {{"MAP_INPUT_RECORDS", 1234567}, {"SPILLED_RECORDS", -2}};
  return r;
}

std::vector<Layout> mapred_layouts() {
  std::vector<Layout> v;
  {
    mapred::JobSubmission s;
    s.id = 11;
    s.trace_id = 0x8000000000000001ULL;
    s.span_id = 42;
    s.spec.name = "terasort";
    s.spec.num_maps = 2048;
    s.spec.num_reduces = 256;
    s.spec.input_bytes = 128ULL << 30;
    s.spec.map_output_ratio = 0.75;
    s.spec.reduce_output_ratio = 1.5;
    s.spec.map_direct_output_bytes = 1ULL << 20;
    s.spec.map_only = true;
    s.spec.map_cpu_us_per_mb = 1234.5;
    s.spec.reduce_cpu_us_per_mb = 2500.25;
    s.spec.task_startup = sim::millis(900);
    s.spec.localization_nn_calls = 6;
    s.spec.output_path = "/out/terasort";
    s.spec.inject_map_failures = -1;
    v.push_back(layout_of("JobSubmission", s));
  }
  v.push_back(layout_of("TaskAssignment", assignment(17)));
  v.push_back(layout_of("TaskReport", report(18)));
  {
    mapred::HeartbeatRequest r;
    r.tracker = 33;
    r.free_map_slots = 2;
    r.free_reduce_slots = 1;
    r.running = {report(1)};
    r.completed = {assignment(2)};
    r.failed = {assignment(4), assignment(5)};
    v.push_back(layout_of("HeartbeatRequest", r));
  }
  {
    mapred::HeartbeatResponse r;
    r.new_tasks = {assignment(6), assignment(700)};
    r.job_complete = true;
    v.push_back(layout_of("HeartbeatResponse", r));
  }
  {
    mapred::StatusUpdateParam p;
    p.report = report(8);
    p.state_string = "reduce > copy (3 of 64 at 1.2 MB/s)";
    v.push_back(layout_of("StatusUpdateParam", p));
  }
  {
    mapred::TaskIdParam p;
    p.job = 3;
    p.task = 1000;
    v.push_back(layout_of("TaskIdParam", p));
  }
  {
    mapred::MapCompletionEventsResult r;
    r.total_maps = 300;
    r.completed_map_hosts = {1, 500, -2};
    v.push_back(layout_of("MapCompletionEventsResult", r));
  }
  {
    mapred::JobStatusResult r;
    r.exists = true;
    r.complete = false;
    r.maps_done = 150;
    r.reduces_done = 7;
    v.push_back(layout_of("JobStatusResult", r));
  }
  return v;
}

hbase::RegionLocation region(std::int32_t index) {
  hbase::RegionLocation l;
  l.index = index;
  l.host = 9 + index;
  l.port = 60020;
  return l;
}

std::vector<Layout> hbase_layouts() {
  std::vector<Layout> v;
  {
    hbase::PutParam p;
    p.key = "user12345";
    p.value = {0xEE, 0x00, 0x7F, 0x80, 0xFF};
    v.push_back(layout_of("PutParam", p));
  }
  {
    hbase::GetParam p;
    p.key = "user6789";
    v.push_back(layout_of("GetParam", p));
  }
  {
    hbase::GetResult r;
    r.found = true;
    r.value = {1, 2, 3};
    v.push_back(layout_of("GetResult", r));
    v.push_back(layout_of("GetResult.miss", hbase::GetResult{}));
  }
  v.push_back(layout_of("RegionLocation", region(2)));
  {
    hbase::RegionServerStartupParam p;
    p.location = region(3);
    v.push_back(layout_of("RegionServerStartupParam", p));
  }
  {
    hbase::RegionLocationsResult r;
    r.complete = true;
    r.regions = {region(0), region(200)};
    v.push_back(layout_of("RegionLocationsResult", r));
  }
  return v;
}

// --- goldens -------------------------------------------------------------------

struct Golden {
  const char* name;
  const char* hex;
  sim::Dur write_cost;
  sim::Dur read_cost;
  sim::Dur read_alloc;
};

const std::vector<Golden> kHdfsGoldens = {
    {"Block",
     "11223344556677880000000000001000", 445, 80, 0},
    {"LocatedBlock",
     "000000000000004d000000000400000003038fc8fb", 806, 240, 0},
    {"FileStatus",
     "102f646174612f706172742d30303030300000000000075bcd1500030000000004000000"
     "0000018bcfe5687b", 1232, 590, 255},
    {"PathParam",
     "0c2f757365722f612f66696c650b444653436c69656e745f37", 627, 774, 508},
    {"RenameParam",
     "062f746d702f61062f6f75742f62", 625, 768, 504},
    {"CreateParam",
     "0b2f6f75742f706172742d310b444653436c69656e745f390000020000000008000000", 1229, 894, 508},
    {"GetBlockLocationsParam",
     "082f696e2f66696c650000000000001000ffffffffffffffff", 627, 465, 253},
    {"LocatedBlocksResult",
     "000000000c800000020000000000000001000000000400000003038fc8fb000000000000"
     "0002000000000400000003038fc8fb", 1863, 560, 0},
    {"LocatedBlockResult",
     "0000000000000009000000000400000003038fc8fb", 806, 240, 0},
    {"FileStatusResult",
     "01022f780000000000075bcd15000300000000040000000000018bcfe5687b", 989, 622, 251},
    {"FileStatusResult.absent",
     "00", 351, 40, 0},
    {"ListingResult",
     "02042f642f610000000000075bcd15000300000000040000000000018bcfe5687b052f64"
     "2f62620000000000075bcd15000300000000040000000000018bcfe5687b", 2315, 1205, 503},
    {"DatanodeRegistration",
     "8f820000020000000000", 444, 80, 0},
    {"HeartbeatParam",
     "04000000014000000000000001c000000000000011", 626, 160, 0},
    {"HeartbeatResult",
     "010000000000000005000000000400000003038fc8fb", 896, 280, 0},
    {"HeartbeatResult.none",
     "00", 351, 40, 0},
    {"BlockReceivedParam",
     "06000000000000006300000000000003e8", 535, 120, 0},
    {"BlockReportParam",
     "07030000000000000001000000000000000a000000000000000200000000000000140000"
     "00000000012c0000000004000000", 1321, 320, 0},
    {"AddBlockParam",
     "0b2f6f75742f706172742d320b444653436c69656e745f33", 627, 774, 508},
    {"AbandonBlockParam",
     "0b2f6f75742f706172742d330b444653436c69656e745f34000000000001e240", 719, 814, 508},
};

const std::vector<Golden> kMapredGoldens = {
    {"JobSubmission",
     "0b807ffffffffffffffe2a0874657261736f72748e08008e010000000020000000003fe8"
     "0000000000003ff800000000000000000000001000000140934a000000000040a3888000"
     "0000000000000035a4e900060d2f6f75742f74657261736f7274ff", 2684, 1373, 507},
    {"TaskAssignment",
     "031101800ff23501edcba9878e012c", 715, 200, 0},
    {"TaskReport",
     "0312003fe400000000000002114d41505f494e5055545f5245434f5244538d12d6870f53"
     "50494c4c45445f5245434f524453fe", 1593, 1060, 511},
    {"HeartbeatRequest",
     "210201010301003fe400000000000002114d41505f494e5055545f5245434f5244538d12"
     "d6870f5350494c4c45445f5245434f524453fe01030201800ff23501edcba9878e012c02"
     "030401800ff23501edcba9878e012c030501800ff23501edcba9878e012c", 3851, 1900, 511},
    {"HeartbeatResponse",
     "02030601800ff23501edcba9878e012c038e02bc01800ff23501edcba9878e012c01", 1680, 480, 0},
    {"StatusUpdateParam",
     "0308003fe400000000000002114d41505f494e5055545f5245434f5244538d12d6870f53"
     "50494c4c45445f5245434f524453fe23726564756365203e20636f7079202833206f6620"
     "363420617420312e32204d422f7329", 2141, 1462, 773},
    {"TaskIdParam",
     "038e03e8", 442, 80, 0},
    {"MapCompletionEventsResult",
     "8e012c03018e01f4fe", 713, 200, 0},
    {"JobStatusResult",
     "01008f9607", 622, 160, 0},
};

const std::vector<Golden> kHBaseGoldens = {
    {"PutParam",
     "0975736572313233343500000005ee007f80ff", 626, 769, 505},
    {"GetParam",
     "087573657236373839", 443, 385, 253},
    {"GetResult",
     "0100000003010203", 533, 422, 251},
    {"GetResult.miss",
     "00", 351, 40, 0},
    {"RegionLocation",
     "020bea74", 532, 120, 0},
    {"RegionServerStartupParam",
     "030cea74", 532, 120, 0},
    {"RegionLocationsResult",
     "01020009ea748fc88fd1ea74", 985, 320, 0},
};

void expect_goldens(const std::vector<Layout>& actual, const std::vector<Golden>& goldens) {
  ASSERT_EQ(actual.size(), goldens.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const Layout& a = actual[i];
    const Golden& g = goldens[i];
    EXPECT_EQ(a.name, g.name);
    EXPECT_EQ(a.hex, g.hex) << a.name << ": wire bytes changed";
    EXPECT_EQ(a.write_cost, g.write_cost) << a.name << ": write cost changed";
    EXPECT_EQ(a.read_cost, g.read_cost) << a.name << ": read cost changed";
    EXPECT_EQ(a.read_alloc, g.read_alloc) << a.name << ": read allocation cost changed";
  }
}

TEST(MessageLayout, HdfsMessagesMatchGoldens) { expect_goldens(hdfs_layouts(), kHdfsGoldens); }

TEST(MessageLayout, MapredMessagesMatchGoldens) {
  expect_goldens(mapred_layouts(), kMapredGoldens);
}

TEST(MessageLayout, HBaseMessagesMatchGoldens) {
  expect_goldens(hbase_layouts(), kHBaseGoldens);
}

}  // namespace
}  // namespace rpcoib
