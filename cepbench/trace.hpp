// The traced run of a workload (--trace 1): see trace.cpp and README.md.
#pragma once

#include "workload.hpp"

namespace cepbench {

// Replays `in` through the layer calls with spans, runs one scraped paced
// phase, and prints the per-layer metrics as the final JSON line.
int run_traced(const Workload& w, const Inputs& in);

}  // namespace cepbench
