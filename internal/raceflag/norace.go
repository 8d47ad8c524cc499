//go:build !race

// Package raceflag tells tests whether the binary was built with the race
// detector, whose instrumentation allocates: allocation budgets are only
// meaningful — and only enforced — without it.
package raceflag

// Enabled reports whether the race detector is compiled in.
const Enabled = false
