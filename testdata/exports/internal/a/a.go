// Package a is the fixture of TestTestOnlyExportsFixture.
package a

// Used has a program caller.
func Used() {}

// NoCaller has no caller.
func NoCaller() {}

// TestOnly has a caller in a test file only.
func TestOnly() {}

// Allowed has no caller and is allow-listed.
func Allowed() {}

// T has a method that nothing calls.
type T struct{}

// NoCaller has no caller.
func (T) NoCaller() {}
