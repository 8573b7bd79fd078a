#include "partition/halo_exchange.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ahg::partition {

HaloExchange::HaloExchange(const PartitionPlan* plan) : plan_(plan) {
  AHG_CHECK(plan != nullptr);
  const int P = plan_->num_parts;
  routes_.assign(P, std::vector<Route>(P));
  mailbox_.assign(P, std::vector<Mail>(P));
  for (int dst = 0; dst < P; ++dst) {
    for (int g : plan_->parts[dst].halo_globals) AddHalo(dst, g);
  }
}

void HaloExchange::AddHalo(int dst, int g) {
  const int src = plan_->part_of[g];
  AHG_CHECK_NE(src, dst);
  Route& route = routes_[src][dst];
  const auto at =
      std::lower_bound(route.globals.begin(), route.globals.end(), g);
  AHG_CHECK(at == route.globals.end() || *at != g);
  const auto i = at - route.globals.begin();
  route.globals.insert(at, g);
  route.src_locals.insert(route.src_locals.begin() + i,
                          plan_->parts[src].local_of.at(g));
  route.dst_locals.insert(route.dst_locals.begin() + i,
                          plan_->parts[dst].local_of.at(g));
}

void HaloExchange::PostBoundary(int p, const Matrix& state,
                                const std::vector<int>* dirty_globals) {
  AHG_TRACE_SPAN_ARG("partition/post_boundary", p);
  for (int dst = 0; dst < plan_->num_parts; ++dst) {
    const Route& route = routes_[p][dst];
    if (route.globals.empty()) continue;
    Mail& mail = mailbox_[dst][p];
    if (dirty_globals == nullptr) {
      mail.rows = GatherRows(state, route.src_locals);
      mail.dst_locals = route.dst_locals;
      continue;
    }
    // Sorted intersection of the route with the dirty set; both ascend
    // global id, so the subset stays in delivery order.
    std::vector<int> src_subset;
    std::vector<int> dst_subset;
    size_t di = 0;
    for (size_t i = 0; i < route.globals.size(); ++i) {
      while (di < dirty_globals->size() &&
             (*dirty_globals)[di] < route.globals[i]) {
        ++di;
      }
      if (di < dirty_globals->size() &&
          (*dirty_globals)[di] == route.globals[i]) {
        src_subset.push_back(route.src_locals[i]);
        dst_subset.push_back(route.dst_locals[i]);
      }
    }
    if (src_subset.empty()) continue;
    mail.rows = GatherRows(state, src_subset);
    mail.dst_locals = std::move(dst_subset);
  }
}

void HaloExchange::DeliverHalo(int q, Matrix* state) {
  AHG_TRACE_SPAN_ARG("partition/halo_exchange", q);
  int64_t delivered = 0;
  // Fixed merge order: sources ascend part id (the loop), rows ascend
  // global id (route construction). Each row has one producer, so the
  // writes are disjoint — see file comment for why the order is still
  // pinned down.
  for (int src = 0; src < plan_->num_parts; ++src) {
    Mail& mail = mailbox_[q][src];
    if (mail.dst_locals.empty()) continue;
    for (size_t i = 0; i < mail.dst_locals.size(); ++i) {
      std::memcpy(state->Row(mail.dst_locals[i]), mail.rows.Row(static_cast<int>(i)),
                  static_cast<size_t>(state->cols()) * sizeof(double));
    }
    delivered += static_cast<int64_t>(mail.dst_locals.size());
    mail.rows = Matrix();
    mail.dst_locals.clear();
  }
  if (delivered > 0) {
    rows_exchanged_ += delivered;
    obs::MetricsRegistry::Global()
        .GetCounter("partition.halo_rows_exchanged")
        ->Increment(delivered);
  }
}

}  // namespace ahg::partition
