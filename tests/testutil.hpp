// Shared fixtures and rig builders for the test suite.
#pragma once

#include "exp/runner.hpp"
#include "exp/tiny_rig.hpp"

namespace e2e::test {

using exp::make_buffer;
using exp::tiny_host;
using exp::TinyIscsi;
using exp::TinyRig;

}  // namespace e2e::test
