package lint

// StaleIgnore reports //lint:ignore directives that no longer suppress
// anything, so the suppression inventory cannot rot: when the finding a
// directive was written for is fixed, the directive must be deleted in
// the same change, or it silently grandfathers the next regression at
// that site.
//
// The check is implemented inside the engine's Run rather than as a
// standalone pass (Run below is nil): only the suppression machinery
// knows which directives matched a finding this run. A directive is
// stale only when it matched nothing AND every analyzer it names was
// enabled in this run — a directive for a disabled analyzer had no
// chance to fire, and "all" requires the full suite, so a run over a
// subset of the analyzers (as the fixture tests do) never produces
// false stales.
var StaleIgnore = &Analyzer{
	Name:         "staleignore",
	WholeProgram: true,
	Run:          nil, // engine-special: evaluated by Run after suppression matching
}
