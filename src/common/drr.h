// Weighted deficit round-robin (Shreedhar & Varghese) over caller-owned
// flows. The scheduler keeps only the rotation and each flow's deficit; the
// flows keep their own queues, so the same core orders packets on a NIC's
// tx link and relay records on an agent's RDMA trunk. Each time a flow
// reaches the front of the rotation its deficit grows by `weight` quanta;
// it sends while its head fits the deficit, then rotates. Long-run shares
// converge to the weight ratio, and a flow alone gets everything (work
// conservation). Deficits carry across rounds, so an item larger than one
// quantum still goes out once its flow has waited enough rounds.
#pragma once

#include <cstdint>
#include <deque>

namespace freeflow {

/// Per-flow scheduler state; a flow type derives from it.
struct DrrFlow {
  std::uint32_t weight = 1;
  double deficit = 0.0;  ///< bytes this flow may send before rotating
  bool active = false;   ///< member of the rotation
  bool charged = false;  ///< deficit already grew this rotation
};

template <typename Flow>
class DeficitRoundRobin {
 public:
  explicit DeficitRoundRobin(double quantum_bytes) : quantum_(quantum_bytes) {}

  /// Joins `flow` to the back of the rotation unless it is already in it;
  /// call after queueing an item.
  void activate(Flow& flow) {
    if (flow.active) return;
    flow.active = true;
    flow.charged = false;
    rotation_.push_back(&flow);
  }

  /// Rotates until some flow's head fits its deficit and returns that flow,
  /// left at the front for consume(); nullptr when every flow in the
  /// rotation is empty or held.
  ///  - `head_bytes(flow)`: size of the flow's head item, negative if empty
  ///    (an emptied flow is retired here).
  ///  - `held(flow, head)`: true to pass the flow over this rotation without
  ///    charging it a quantum (a rate cap waiting for tokens).
  ///  - `rotated(flow)`: the flow left the front with a new deficit (out of
  ///    deficit, or retired with deficit 0).
  template <typename HeadBytes, typename Held, typename Rotated>
  Flow* pick(HeadBytes&& head_bytes, Held&& held, Rotated&& rotated) {
    std::size_t held_in_row = 0;
    while (!rotation_.empty() && held_in_row < rotation_.size()) {
      Flow& flow = *rotation_.front();
      const double head = head_bytes(flow);
      if (head < 0) {
        retire_front();
        rotated(flow);
        continue;
      }
      if (held(flow, head)) {
        ++held_in_row;
        flow.charged = false;
        rotate_front();
        continue;
      }
      if (flow.deficit < head) {
        if (!flow.charged) {
          flow.deficit += quantum_ * flow.weight;
          flow.charged = true;
        }
        if (flow.deficit < head) {
          held_in_row = 0;
          flow.charged = false;
          rotated(flow);
          rotate_front();
          continue;
        }
      }
      return &flow;
    }
    return nullptr;
  }

  template <typename HeadBytes>
  Flow* pick(HeadBytes&& head_bytes) {
    return pick(head_bytes, [](const Flow&, double) { return false; }, [](const Flow&) {});
  }

  /// Charges the flow pick() returned for the `bytes` it just sent; a flow
  /// left empty leaves the rotation with its deficit reset.
  void consume(Flow& flow, double bytes, bool emptied) {
    flow.deficit -= bytes;
    if (emptied) retire_front();
  }

 private:
  void retire_front() {
    Flow& flow = *rotation_.front();
    flow.active = false;
    flow.charged = false;
    flow.deficit = 0.0;
    rotation_.pop_front();
  }
  void rotate_front() {
    rotation_.push_back(rotation_.front());
    rotation_.pop_front();
  }

  double quantum_;
  std::deque<Flow*> rotation_;
};

}  // namespace freeflow
