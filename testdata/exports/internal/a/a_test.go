package a

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
