/// Platform JSON coverage: parse -> serialize -> parse round-trips, the
/// committed scenarios/platforms/ files staying in sync with the code, and
/// registry-style diagnostics on unknown keys / kinds / device references.

#include <gtest/gtest.h>

#include "model/platform_io.hpp"
#include "util/error.hpp"

namespace spmap {
namespace {

void expect_platforms_equal(const Platform& a, const Platform& b) {
  ASSERT_EQ(a.device_count(), b.device_count());
  for (std::size_t i = 0; i < a.device_count(); ++i) {
    const Device& da = a.device(DeviceId(i));
    const Device& db = b.device(DeviceId(i));
    EXPECT_EQ(da.name, db.name);
    EXPECT_EQ(da.kind, db.kind);
    EXPECT_EQ(da.lanes, db.lanes);
    EXPECT_EQ(da.lane_gops, db.lane_gops);
    EXPECT_EQ(da.slots, db.slots);
    EXPECT_EQ(da.area_budget, db.area_budget);
    EXPECT_EQ(da.stream_gops_per_streamability,
              db.stream_gops_per_streamability);
    EXPECT_EQ(da.stream_fill_fraction, db.stream_fill_fraction);
  }
  for (std::size_t x = 0; x < a.device_count(); ++x) {
    for (std::size_t y = 0; y < a.device_count(); ++y) {
      if (x == y) continue;
      EXPECT_EQ(a.bandwidth_gbps(DeviceId(x), DeviceId(y)),
                b.bandwidth_gbps(DeviceId(x), DeviceId(y)));
      EXPECT_EQ(a.latency_s(DeviceId(x), DeviceId(y)),
                b.latency_s(DeviceId(x), DeviceId(y)));
    }
  }
}

TEST(PlatformIo, ReferencePlatformRoundTrips) {
  const Platform reference = reference_platform();
  const Json doc = platform_to_json(reference, "paper-cpu-gpu-fpga");
  const NamedPlatform parsed = platform_from_json(doc);
  EXPECT_EQ(parsed.name, "paper-cpu-gpu-fpga");
  expect_platforms_equal(reference, parsed.platform);
  // Serialize -> parse -> serialize is a fixed point.
  EXPECT_EQ(doc.dump(2),
            platform_to_json(parsed.platform, parsed.name).dump(2));
}

TEST(PlatformIo, CommittedPaperPlatformMatchesReference) {
  const NamedPlatform committed = load_platform_file(
      std::string(SPMAP_SCENARIO_DIR) + "/platforms/paper_cpu_gpu_fpga.json");
  EXPECT_EQ(committed.name, "paper-cpu-gpu-fpga");
  expect_platforms_equal(reference_platform(), committed.platform);
}

TEST(PlatformIo, CommittedVariantPlatformsParseAndRoundTrip) {
  for (const char* file : {"/platforms/cpu_gpu.json",
                           "/platforms/dual_fpga.json"}) {
    const NamedPlatform p =
        load_platform_file(std::string(SPMAP_SCENARIO_DIR) + file);
    EXPECT_FALSE(p.name.empty()) << file;
    const Json doc = platform_to_json(p.platform, p.name);
    const NamedPlatform again = platform_from_json(doc);
    expect_platforms_equal(p.platform, again.platform);
    EXPECT_EQ(doc.dump(2),
              platform_to_json(again.platform, again.name).dump(2))
        << file;
  }
}

TEST(PlatformIo, UnknownDeviceKeyThrowsListingAccepted) {
  Json doc = platform_to_json(reference_platform(), "p");
  Json::Array devices = doc.at("devices").as_array();
  devices[0].set("lane_flops", 1.0);
  doc.set("devices", Json(std::move(devices)));
  try {
    platform_from_json(doc);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lane_flops"), std::string::npos);
    EXPECT_NE(what.find("lane_gops"), std::string::npos)
        << "error should list accepted keys: " << what;
  }
}

TEST(PlatformIo, UnknownKindThrows) {
  const char* text = R"({"schema": "spmap-platform/1",
    "devices": [{"name": "x", "kind": "tpu"}], "links": []})";
  try {
    platform_from_json_text(text);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fpga"), std::string::npos);
  }
}

TEST(PlatformIo, WrongSchemaThrows) {
  EXPECT_THROW(platform_from_json_text(
                   R"({"schema": "spmap-platform/9", "devices": []})"),
               Error);
  EXPECT_THROW(platform_from_json_text(R"({"devices": []})"), Error);
}

TEST(PlatformIo, DuplicateDeviceNameThrows) {
  const char* text = R"({"schema": "spmap-platform/1", "devices": [
    {"name": "a", "kind": "cpu"}, {"name": "a", "kind": "gpu"}],
    "links": [{"a": "a", "b": "a", "bandwidth_gbps": 1, "latency_s": 0}]})";
  EXPECT_THROW(platform_from_json_text(text), Error);
}

TEST(PlatformIo, LinkToUnknownDeviceThrowsListingDevices) {
  const char* text = R"({"schema": "spmap-platform/1", "devices": [
    {"name": "a", "kind": "cpu"}, {"name": "b", "kind": "cpu"}],
    "links": [{"a": "a", "b": "c", "bandwidth_gbps": 1, "latency_s": 0}]})";
  try {
    platform_from_json_text(text);
    FAIL() << "expected spmap::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'c'"), std::string::npos);
    EXPECT_NE(what.find("a, b"), std::string::npos)
        << "error should list devices: " << what;
  }
}

TEST(PlatformIo, MissingLinkFailsValidation) {
  const char* text = R"({"schema": "spmap-platform/1", "devices": [
    {"name": "a", "kind": "cpu"}, {"name": "b", "kind": "cpu"}],
    "links": []})";
  EXPECT_THROW(platform_from_json_text(text), Error);
}

TEST(PlatformIo, FillFractionDefaultsAndOmittedFields) {
  // Kind-irrelevant fields may be omitted; defaults match Device{}.
  const char* text = R"({"schema": "spmap-platform/1", "devices": [
    {"name": "cpu0", "kind": "cpu", "lanes": 4, "lane_gops": 2},
    {"name": "fpga0", "kind": "fpga", "area_budget": 10,
     "stream_gops_per_streamability": 0.5}],
    "links": [{"a": "cpu0", "b": "fpga0", "bandwidth_gbps": 1,
               "latency_s": 0.0001}]})";
  const NamedPlatform p = platform_from_json_text(text);
  EXPECT_EQ(p.platform.device(DeviceId(1u)).stream_fill_fraction, 0.1);
  EXPECT_EQ(p.platform.device(DeviceId(0u)).slots, 1u);
}

}  // namespace
}  // namespace spmap
