#pragma once

// Fixture: a scenario-layer header that reaches back into attack/ — one
// include-direction finding when it lives under src/scenario/, none
// elsewhere. A comment that says #include "attack/threat_model.h" is fine.
#include "attack/threat_model.h"
#include "scenario/spec.h"

namespace imap {
inline int include_direction_fixture() { return 0; }
}  // namespace imap
