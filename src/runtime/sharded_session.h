// The former name of the session front. Session (src/runtime/session.h) is
// the one front at every shard count; this alias remains only because the
// end-to-end benchmark (e2ebench/) still names ShardedSession,
// ShardedSession::Producer and ShardedSession::RouterFor. The next change
// to the benchmark drops it.
#ifndef HAMLET_RUNTIME_SHARDED_SESSION_H_
#define HAMLET_RUNTIME_SHARDED_SESSION_H_

#include "src/runtime/session.h"

namespace hamlet {

using ShardedSession = Session;

}  // namespace hamlet

#endif  // HAMLET_RUNTIME_SHARDED_SESSION_H_
