// serve::Server is shard::ShardedServer: one device is a one-shard fleet,
// and ShardedServer(HarmoniaIndex&, ServeOptions) serves it. The alias
// only keeps the end-to-end benchmark (bench_e2e/topology.cpp) compiling
// unchanged; delete it at the next change to that benchmark.
#pragma once

#include "shard/sharded_server.hpp"

namespace harmonia::serve {

using Server = shard::ShardedServer;

}  // namespace harmonia::serve
