// Host-speed reference kernel (see calibrate.cpp).
#pragma once

namespace perfbench {

/// Runs the fixed reference kernel once; returns its wall time in seconds.
double calibrate();

}  // namespace perfbench
