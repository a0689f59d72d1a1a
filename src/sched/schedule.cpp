#include "sched/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace spmap {

Json Schedule::to_json(const Dag& dag, const Platform& platform) const {
  Json doc = Json::object();
  doc.set("makespan", makespan);
  Json arr = Json::array();
  for (const ScheduledTask& t : tasks) {
    Json item = Json::object();
    item.set("task", static_cast<std::int64_t>(t.task.v));
    item.set("label", dag.label(t.task));
    item.set("device", platform.device(t.device).name);
    item.set("start", t.start);
    item.set("finish", t.finish);
    arr.push_back(std::move(item));
  }
  doc.set("tasks", std::move(arr));
  return doc;
}

std::string Schedule::to_gantt(const Dag& dag, const Platform& platform,
                               std::size_t width) const {
  std::ostringstream os;
  if (makespan <= 0.0 || tasks.empty()) return "(empty schedule)\n";
  const double scale = static_cast<double>(width) / makespan;
  for (const ScheduledTask& t : tasks) {
    const auto from = static_cast<std::size_t>(t.start * scale);
    auto to = static_cast<std::size_t>(t.finish * scale);
    to = std::min(std::max(to, from + 1), width);
    std::string bar(width, '.');
    for (std::size_t c = from; c < to; ++c) bar[c] = '#';
    std::string label = dag.label(t.task).empty()
                            ? "task" + std::to_string(t.task.v)
                            : dag.label(t.task);
    label.resize(14, ' ');
    std::string dev = platform.device(t.device).name.substr(0, 10);
    dev.resize(10, ' ');
    os << label << ' ' << dev << ' ' << bar << '\n';
  }
  return os.str();
}

void Schedule::validate(const Dag& dag, const Platform& platform,
                        const Mapping& mapping) const {
  require(tasks.size() == dag.node_count(),
          "Schedule: task count mismatch");
  std::vector<double> start(dag.node_count());
  std::vector<double> finish(dag.node_count());
  std::vector<bool> seen(dag.node_count(), false);
  for (const ScheduledTask& t : tasks) {
    require(t.task.v < dag.node_count(), "Schedule: bad task id");
    require(!seen[t.task.v], "Schedule: duplicate task");
    seen[t.task.v] = true;
    require(t.finish >= t.start, "Schedule: negative duration");
    require(t.finish <= makespan + 1e-9, "Schedule: exceeds makespan");
    start[t.task.v] = t.start;
    finish[t.task.v] = t.finish;
  }
  // Precedence: a consumer may start before its producer *finishes* only
  // under FPGA streaming, but never before it starts.
  for (std::size_t e = 0; e < dag.edge_count(); ++e) {
    const EdgeId id(e);
    const NodeId u = dag.src(id);
    const NodeId v = dag.dst(id);
    const bool streamed = mapping[u] == mapping[v] &&
                          platform.device(mapping[u]).is_fpga();
    if (streamed) {
      require(start[v.v] >= start[u.v] - 1e-9,
              "Schedule: streamed consumer starts before producer");
    } else {
      require(start[v.v] >= finish[u.v] - 1e-9,
              "Schedule: consumer starts before producer finishes");
    }
  }
  // Device capacity: at no instant may more non-streamed tasks overlap on a
  // device than it has slots. Events: +1 at start, -1 at finish.
  for (std::size_t d = 0; d < platform.device_count(); ++d) {
    const Device& dev = platform.device(DeviceId(d));
    if (dev.is_fpga()) continue;  // streamed stages co-reside
    std::vector<std::pair<double, int>> events;
    for (const ScheduledTask& t : tasks) {
      if (mapping[t.task] != DeviceId(d)) continue;
      if (t.finish - t.start <= 1e-15) continue;
      events.emplace_back(t.start, +1);
      events.emplace_back(t.finish, -1);
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first < b.first;
                return a.second < b.second;  // process finishes first
              });
    int active = 0;
    for (const auto& [time, delta] : events) {
      active += delta;
      require(active <= static_cast<int>(std::max<std::size_t>(1, dev.slots)),
              "Schedule: device slot capacity exceeded");
    }
  }
}

Schedule extract_schedule(const Evaluator& eval, const Mapping& mapping) {
  require(eval.cost().area_feasible(mapping),
          "extract_schedule: mapping is area-infeasible");
  // Find the best prepared order, then re-simulate it so the context's
  // start/finish buffers hold exactly that schedule.
  EvalContext ctx;
  const std::vector<NodeId>* best_order = nullptr;
  double best = kInfeasible;
  for (const auto& order : eval.orders()) {
    const double ms = eval.evaluate_order(mapping, order, ctx);
    if (ms < best) {
      best = ms;
      best_order = &order;
    }
  }
  require(best_order != nullptr, "extract_schedule: no schedule orders");
  eval.evaluate_order(mapping, *best_order, ctx);

  Schedule schedule;
  schedule.makespan = best;
  const std::span<const double> start = ctx.start_times();
  const std::span<const double> finish = ctx.finish_times();
  for (std::size_t i = 0; i < start.size(); ++i) {
    schedule.tasks.push_back(
        ScheduledTask{NodeId(i), mapping[NodeId(i)], start[i], finish[i]});
  }
  std::sort(schedule.tasks.begin(), schedule.tasks.end(),
            [](const ScheduledTask& a, const ScheduledTask& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.task < b.task;
            });
  return schedule;
}

}  // namespace spmap
