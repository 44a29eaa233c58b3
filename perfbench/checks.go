package main

// checkResult is one correctness check of a run. err is the check's
// verdict on the real outputs; control is its verdict when handed a
// deliberately corrupted expectation, which must be an error — a check
// that cannot fail proves nothing.
type checkResult struct {
	name    string
	err     error
	control error
}

// check records a correctness check and its negative control.
func (b *bench) check(name string, real, corrupted func() error) {
	b.checks = append(b.checks, checkResult{name: name, err: real(), control: corrupted()})
}
