//go:build race

package ccmd

// The race runtime adds allocations of its own, so an allocation
// ceiling measured without it cannot hold under it.
func init() { raceEnabled = true }
