#include "src/runtime/executor.h"

namespace hamlet {

RunOutput StreamExecutor::Run(const EventVector& events) {
  RunOutput out;
  CollectingSink sink;
  Result<std::unique_ptr<Session>> session =
      Session::Open(*plan_, config_, &sink);
  if (!session.ok()) {
    out.status = session.status();
    return out;
  }
  out.status = session.value()->PushBatch(events);
  // The first Close on an open session always succeeds.
  out.metrics = session.value()->Close().value();
  out.emissions = sink.Take();
  return out;
}

}  // namespace hamlet
