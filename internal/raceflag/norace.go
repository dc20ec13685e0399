//go:build !race

// Package raceflag tells tests whether the binary was built with the race
// detector, under which sync.Pool deliberately drops a share of what is put
// into it: assertions that count on pooled buffers being there (allocation
// budgets) skip themselves when Enabled.
package raceflag

const Enabled = false
