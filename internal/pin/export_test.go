package pin

// SetPredicateWrapper installs wrap as the instrumentation-time predicate
// hook (wrapPredicate) and returns a function restoring the previous one.
// Callers must not run in parallel with other tests that instrument.
func SetPredicateWrapper(wrap func(PredicateFn) PredicateFn) (restore func()) {
	prev := wrapPredicate
	wrapPredicate = wrap
	return func() { wrapPredicate = prev }
}
