#include "common/rng.h"

#include <sstream>

#include "common/check.h"
#include "common/serialize.h"

namespace imap {

namespace {
// SplitMix64 — used to decorrelate seeds before feeding the Mersenne twister
// and to derive child streams.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed), gen_(splitmix64(seed)) {}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(gen_);
}

double Rng::normal(double mean, double stddev) {
  // Scale a standard draw by hand: std::normal_distribution requires
  // stddev > 0, and callers pass 0 to switch noise off. libstdc++ returns
  // z * stddev + mean in this order, so every draw keeps its bits.
  std::normal_distribution<double> d;
  return d(gen_) * stddev + mean;
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> d(lo, hi);
  return d(gen_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution d(p);
  return d(gen_);
}

std::vector<double> Rng::uniform_vec(std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (auto& x : v) x = uniform(lo, hi);
  return v;
}

std::vector<double> Rng::normal_vec(std::size_t n, double mean,
                                    double stddev) {
  std::vector<double> v(n);
  for (auto& x : v) x = normal(mean, stddev);
  return v;
}

Rng Rng::split(std::uint64_t stream) {
  return Rng(splitmix64(seed_ ^ splitmix64(stream + 0x5851f42d4c957f2dULL)));
}

std::uint64_t Rng::next_u64() { return gen_(); }

void Rng::save_state(BinaryWriter& w) const {
  w.write_u64(seed_);
  // The standard guarantees operator<</>> round-trip the engine exactly
  // (textual dump of the Mersenne state + position).
  std::ostringstream os;
  os << gen_;
  w.write_string(os.str());
}

void Rng::load_state(BinaryReader& r) {
  seed_ = r.read_u64();
  std::istringstream is(r.read_string());
  is >> gen_;
  IMAP_CHECK_MSG(!is.fail(), "corrupt Rng engine state in checkpoint");
}

}  // namespace imap
