//go:build race

package raceflag

const Enabled = true
