/**
 * @file
 * Clang thread-safety-analysis attribute macros.
 *
 * Under clang these expand to the capability attributes consumed by
 * `-Wthread-safety` (the tier-1 `-DADAPTSIM_THREAD_SAFETY=ON` build
 * turns them into hard errors); under every other compiler they
 * expand to nothing, so GCC-only checkouts build identically.
 *
 * The tree never uses the raw attributes directly — code annotates
 * with these macros, and locked state lives behind the annotated
 * wrapper types in common/sync.hh (libstdc++'s std::mutex and
 * std::lock_guard carry no capability attributes, so annotating raw
 * standard-library members would only produce false positives).
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 */

#ifndef ADAPTSIM_COMMON_THREAD_ANNOTATIONS_HH
#define ADAPTSIM_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__)
#define ADAPTSIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ADAPTSIM_THREAD_ANNOTATION(x)
#endif

/** Marks a class as a lockable capability ("mutex", "role", ...). */
#define ADAPTSIM_CAPABILITY(x) ADAPTSIM_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class whose lifetime holds a capability. */
#define ADAPTSIM_SCOPED_CAPABILITY \
    ADAPTSIM_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only with the capability held. */
#define ADAPTSIM_GUARDED_BY(x) ADAPTSIM_THREAD_ANNOTATION(guarded_by(x))

/** Documents (and checks) a required lock acquisition order. */
#define ADAPTSIM_ACQUIRED_BEFORE(...) \
    ADAPTSIM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/** Function may only be called with the capabilities already held. */
#define ADAPTSIM_REQUIRES(...) \
    ADAPTSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capability and holds it on return. */
#define ADAPTSIM_ACQUIRE(...) \
    ADAPTSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases a capability held on entry. */
#define ADAPTSIM_RELEASE(...) \
    ADAPTSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function attempts the acquisition; first argument is the return
 *  value meaning success. */
#define ADAPTSIM_TRY_ACQUIRE(...) \
    ADAPTSIM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function must NOT be called with the capabilities held (deadlock
 *  documentation — e.g. long-running work outside the fast path). */
#define ADAPTSIM_EXCLUDES(...) \
    ADAPTSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Runtime assertion that the capability is held; teaches the
 *  analysis about contexts it cannot follow (lambda bodies). */
#define ADAPTSIM_ASSERT_CAPABILITY(x) \
    ADAPTSIM_THREAD_ANNOTATION(assert_capability(x))

/** Escape hatch: function body is not analysed.  Every use must
 *  carry a comment stating the invariant that makes it safe. */
#define ADAPTSIM_NO_THREAD_SAFETY_ANALYSIS \
    ADAPTSIM_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // ADAPTSIM_COMMON_THREAD_ANNOTATIONS_HH
