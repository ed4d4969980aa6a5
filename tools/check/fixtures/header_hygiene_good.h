#pragma once

// Fixture: a hygienic header — must produce no findings. The prose below
// names the banned forms without using them:
// using namespace std;   #include "../common/rng.h"
/* #include "../nn/mlp.h" */
#include <cstddef>

#include "common/rng.h"

namespace imap {

inline std::size_t header_hygiene_fixture(std::size_t n) { return n + 1; }

}  // namespace imap
