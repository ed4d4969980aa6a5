#include "nn/kernel_backend.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "nn/kernel_impl.h"

namespace imap::nn::kernel {

namespace {

bool always_supported() { return true; }

#if defined(IMAP_KERNEL_AVX2) || defined(IMAP_KERNEL_AVX512)
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
#endif
#ifdef IMAP_KERNEL_AVX512
bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
}
#endif

// Gate values are measured on the reference host (see DESIGN.md "kernel
// backends & quantized serving" for the numbers): without a caller-cached
// transpose the SIMD batch_affine pays an O(out·in) transpose per call, so
// scalar wins at batch 1 and the SIMD path from batch 2 on; with
// Mlp::Workspace's cached transpose it wins from batch 1 (~9x at 64x64).
// NEON keeps the conservative pre-refactor gate of 4 — no aarch64 reference
// host to re-measure on; revisit when one is available.
const KernelBackend kScalar = {
    "scalar",          &always_supported,
    &detail::scalar_batch_affine,
    &detail::scalar_batch_matvec_t,
    &detail::scalar_batch_outer_acc,
    &detail::scalar_quant_affine,
    &detail::scalar_quant_act,
    &detail::scalar_knn_scan,
    &detail::scalar_tanh_rows,
    &detail::scalar_tanh_grad,
    &detail::scalar_adam_step,
    /*wants_transposed=*/false,
    /*min_batch_affine=*/1,
    /*min_batch_affine_cached=*/1,
};

#ifdef IMAP_KERNEL_AVX2
const KernelBackend kAvx2 = {
    "avx2",            &cpu_has_avx2,
    &detail::avx2_batch_affine,
    &detail::avx2_batch_matvec_t,
    &detail::avx2_batch_outer_acc,
    &detail::avx2_quant_affine,
    &detail::avx2_quant_act,
    &detail::avx2_knn_scan,
    &detail::avx2_tanh_rows,
    &detail::avx2_tanh_grad,
    &detail::avx2_adam_step,
    /*wants_transposed=*/true,
    /*min_batch_affine=*/2,
    /*min_batch_affine_cached=*/1,
};
#endif

#ifdef IMAP_KERNEL_AVX512
const KernelBackend kAvx512 = {
    "avx512",          &cpu_has_avx512,
    &detail::avx512_batch_affine,
    &detail::avx512_batch_matvec_t,
    &detail::avx512_batch_outer_acc,
    &detail::avx512_quant_affine,
    &detail::avx512_quant_act,
    &detail::avx512_knn_scan,
    &detail::avx512_tanh_rows,
    &detail::avx512_tanh_grad,
    &detail::avx512_adam_step,
    /*wants_transposed=*/true,
    /*min_batch_affine=*/2,
    /*min_batch_affine_cached=*/1,
};
#endif

#ifdef IMAP_KERNEL_NEON
const KernelBackend kNeon = {
    "neon",            &always_supported,
    &detail::neon_batch_affine,
    &detail::neon_batch_matvec_t,
    &detail::neon_batch_outer_acc,
    /*quant_affine=*/nullptr,
    /*quant_act=*/nullptr,
    &detail::neon_knn_scan,
    /*tanh_rows=*/nullptr,
    /*tanh_grad=*/nullptr,
    /*adam_step=*/nullptr,
    /*wants_transposed=*/true,
    /*min_batch_affine=*/4,
    /*min_batch_affine_cached=*/1,
};
#endif

// Widest first: auto-selection walks this list and takes the first backend
// whose CPUID probe passes.
const std::vector<const KernelBackend*>& registry() {
  static const std::vector<const KernelBackend*> kAll = {
#ifdef IMAP_KERNEL_AVX512
      &kAvx512,
#endif
#ifdef IMAP_KERNEL_AVX2
      &kAvx2,
#endif
#ifdef IMAP_KERNEL_NEON
      &kNeon,
#endif
      &kScalar,
  };
  return kAll;
}

const KernelBackend* widest_supported() {
  for (const KernelBackend* be : registry())
    if (be->supported()) return be;
  return &kScalar;
}

// IMAP_KERNEL resolution, done once. An unknown or CPU-unsupported request
// warns and falls back to auto so forced-backend ctest entries stay portable
// to machines without the wider ISA.
const KernelBackend* resolve_env_choice() {
  const char* env = std::getenv("IMAP_KERNEL");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0)
    return widest_supported();
  const KernelBackend* be = find_backend(env);
  if (be == nullptr) {
    std::fprintf(stderr,
                 "[imap] IMAP_KERNEL=%s: backend not compiled into this "
                 "binary; using auto selection\n",
                 env);
    return widest_supported();
  }
  if (!be->supported()) {
    std::fprintf(stderr,
                 "[imap] IMAP_KERNEL=%s: backend unsupported on this CPU; "
                 "using auto selection\n",
                 env);
    return widest_supported();
  }
  return be;
}

const KernelBackend* g_forced = nullptr;

}  // namespace

const KernelBackend& active_backend() {
  if (g_forced != nullptr) return *g_forced;
  static const KernelBackend* resolved = resolve_env_choice();
  return *resolved;
}

const KernelBackend& scalar_backend() { return kScalar; }

const std::vector<const KernelBackend*>& all_backends() { return registry(); }

const KernelBackend* find_backend(const std::string& name) {
  for (const KernelBackend* be : registry())
    if (name == be->name) return be;
  return nullptr;
}

const KernelBackend* set_forced_backend(const KernelBackend* be) {
  const KernelBackend* prev = g_forced;
  g_forced = be;
  return prev;
}

ScopedBackend::ScopedBackend(const std::string& name) {
  const KernelBackend* be = find_backend(name);
  if (be != nullptr && be->supported()) {
    prev_ = set_forced_backend(be);
    activated_ = true;
  }
}

ScopedBackend::~ScopedBackend() {
  if (activated_) set_forced_backend(prev_);
}

}  // namespace imap::nn::kernel

