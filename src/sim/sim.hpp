// Umbrella header for the simulation substrate.
#pragma once

#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event_fn.hpp"
#include "sim/frame_pool.hpp"
#include "sim/layer.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
