// Fixture: no #pragma once, a parent-relative include and a header-scope
// using-directive — one finding each.
#include "../common/rng.h"

using namespace std;

namespace imap {
inline int header_hygiene_fixture() { return 0; }
}  // namespace imap
