#include "model/platform_io.hpp"

#include <map>

#include "util/fs.hpp"

namespace spmap {

namespace {

const char* kSchema = "spmap-platform/1";

DeviceKind kind_from_string(const std::string& s) {
  if (s == "cpu") return DeviceKind::Cpu;
  if (s == "gpu") return DeviceKind::Gpu;
  if (s == "fpga") return DeviceKind::Fpga;
  throw Error("platform device: unknown kind '" + s +
              "' (accepted: cpu, gpu, fpga)");
}

const char* kind_to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::Cpu:
      return "cpu";
    case DeviceKind::Gpu:
      return "gpu";
    case DeviceKind::Fpga:
      return "fpga";
  }
  return "cpu";
}

double get_double(const Json& obj, const std::string& key, double fallback) {
  return obj.contains(key) ? obj.at(key).as_double() : fallback;
}

Device device_from_json(const Json& doc) {
  Device d;
  require(doc.contains("name") && !doc.at("name").as_string().empty(),
          "platform device: missing or empty 'name'");
  d.name = doc.at("name").as_string();
  require(doc.contains("kind"), "platform device '" + d.name +
                                    "': missing 'kind' (cpu, gpu or fpga)");
  d.kind = kind_from_string(doc.at("kind").as_string());

  // Only keys the kind actually consumes are accepted — serialization emits
  // exactly these, which is what keeps parse -> serialize -> parse the
  // identity (an fpga with "lanes" would otherwise parse and then silently
  // drop it on the way back out).
  std::vector<std::string> accepted = {"name", "kind"};
  if (d.is_fpga()) {
    accepted.insert(accepted.end(), {"area_budget",
                                     "stream_gops_per_streamability",
                                     "stream_fill_fraction"});
  } else {
    accepted.insert(accepted.end(), {"lanes", "lane_gops", "slots"});
  }
  doc.require_keys("platform device '" + d.name + "'", accepted);
  d.lanes = get_double(doc, "lanes", 1.0);
  d.lane_gops = get_double(doc, "lane_gops", 1.0);
  if (doc.contains("slots")) {
    const auto slots = doc.at("slots").as_int();
    require(slots >= 1, "platform device '" + d.name + "': slots must be >= 1");
    d.slots = static_cast<std::size_t>(slots);
  }
  d.area_budget = get_double(doc, "area_budget", 0.0);
  d.stream_gops_per_streamability =
      get_double(doc, "stream_gops_per_streamability", 0.0);
  d.stream_fill_fraction = get_double(doc, "stream_fill_fraction", 0.1);
  return d;
}

Json device_to_json(const Device& d) {
  Json doc = Json::object();
  doc.set("name", d.name);
  doc.set("kind", kind_to_string(d.kind));
  if (d.is_fpga()) {
    doc.set("area_budget", d.area_budget);
    doc.set("stream_gops_per_streamability", d.stream_gops_per_streamability);
    doc.set("stream_fill_fraction", d.stream_fill_fraction);
  } else {
    doc.set("lanes", d.lanes);
    doc.set("lane_gops", d.lane_gops);
    doc.set("slots", d.slots);
  }
  return doc;
}

}  // namespace

Json platform_to_json(const Platform& platform, const std::string& name) {
  Json devices = Json::array();
  for (const Device& d : platform.devices()) {
    devices.push_back(device_to_json(d));
  }
  Json links = Json::array();
  for (std::size_t a = 0; a < platform.device_count(); ++a) {
    for (std::size_t b = a + 1; b < platform.device_count(); ++b) {
      Json link = Json::object();
      link.set("a", platform.device(DeviceId(a)).name);
      link.set("b", platform.device(DeviceId(b)).name);
      link.set("bandwidth_gbps",
               platform.bandwidth_gbps(DeviceId(a), DeviceId(b)));
      link.set("latency_s", platform.latency_s(DeviceId(a), DeviceId(b)));
      links.push_back(std::move(link));
    }
  }
  Json doc = Json::object();
  doc.set("schema", kSchema);
  if (!name.empty()) doc.set("name", name);
  doc.set("devices", std::move(devices));
  doc.set("links", std::move(links));
  return doc;
}

NamedPlatform platform_from_json(const Json& doc) {
  doc.require_keys("platform", {"schema", "name", "devices", "links"});
  require(doc.contains("schema") && doc.at("schema").as_string() == kSchema,
          std::string("platform: missing or unsupported 'schema' (expected "
                      "\"") +
              kSchema + "\")");
  NamedPlatform out;
  if (doc.contains("name")) out.name = doc.at("name").as_string();

  require(doc.contains("devices") && !doc.at("devices").as_array().empty(),
          "platform: needs a non-empty 'devices' array");
  std::map<std::string, DeviceId> by_name;
  for (const Json& device_doc : doc.at("devices").as_array()) {
    Device d = device_from_json(device_doc);
    require(by_name.count(d.name) == 0,
            "platform: duplicate device name '" + d.name + "'");
    const std::string device_name = d.name;
    by_name.emplace(device_name, out.platform.add_device(std::move(d)));
  }

  auto device_ref = [&](const Json& link, const char* key) {
    const std::string& name = link.at(key).as_string();
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      std::string known;
      for (const auto& [n, id] : by_name) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw Error("platform link: unknown device '" + name +
                  "' (devices: " + known + ")");
    }
    return it->second;
  };
  if (doc.contains("links")) {
    for (const Json& link : doc.at("links").as_array()) {
      link.require_keys("platform link",
                        {"a", "b", "bandwidth_gbps", "latency_s"});
      out.platform.set_link(device_ref(link, "a"), device_ref(link, "b"),
                            link.at("bandwidth_gbps").as_double(),
                            link.at("latency_s").as_double());
    }
  }
  out.platform.validate();
  return out;
}

NamedPlatform platform_from_json_text(const std::string& text) {
  return platform_from_json(Json::parse(text));
}

NamedPlatform load_platform_file(const std::string& path) {
  return platform_from_json_text(read_text_file(path, "platform file"));
}

}  // namespace spmap
