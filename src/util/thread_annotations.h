// Portable wrappers for Clang's thread-safety-analysis attributes.
//
// The lock discipline (per-sender mailbox locks, the ThreadPool wake
// protocol, the service admission queue) is checked statically by Clang's
// -Wthread-safety: members declare which capability guards them
// (KK_GUARDED_BY), functions declare which capabilities they need
// (KK_REQUIRES) or take (KK_ACQUIRE/KK_RELEASE), and the compiler proves
// every access is covered. The dedicated CI job builds the whole tree with
// clang and -Werror=thread-safety; under GCC the macros expand to nothing,
// so the attributes never affect codegen or portability. See
// docs/STATIC_ANALYSIS.md for the conventions.
//
// Only use KK_NO_THREAD_SAFETY_ANALYSIS with a comment explaining the
// happens-before reasoning the analysis cannot see (typically: BSP-barrier
// driver-only access after every worker joined).
#ifndef SRC_UTIL_THREAD_ANNOTATIONS_H_
#define SRC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define KK_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define KK_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// On the lock type itself: declares it a capability named "mutex".
#define KK_CAPABILITY(x) KK_THREAD_ANNOTATION(capability(x))

// On an RAII lock holder: acquisition in the ctor, release in the dtor.
#define KK_SCOPED_CAPABILITY KK_THREAD_ANNOTATION(scoped_lockable)

// On a data member: reads and writes require holding `x`.
#define KK_GUARDED_BY(x) KK_THREAD_ANNOTATION(guarded_by(x))

// On a pointer member: the pointed-to data (not the pointer) requires `x`.
#define KK_PT_GUARDED_BY(x) KK_THREAD_ANNOTATION(pt_guarded_by(x))

// On a function: the caller must already hold the capability.
#define KK_REQUIRES(...) KK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// On a function: acquires/releases the capability itself.
#define KK_ACQUIRE(...) KK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define KK_RELEASE(...) KK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// On a try-lock: acquires the capability only when returning `ret`.
#define KK_TRY_ACQUIRE(ret, ...) \
  KK_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

// On a function: the caller must NOT hold the capability (deadlock guard).
#define KK_EXCLUDES(...) KK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On a return value: the function exposes a reference to the capability.
#define KK_RETURN_CAPABILITY(x) KK_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch. Every use site MUST carry a comment justifying why the
// access is race-free despite the analysis (see docs/STATIC_ANALYSIS.md).
#define KK_NO_THREAD_SAFETY_ANALYSIS KK_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // SRC_UTIL_THREAD_ANNOTATIONS_H_
