//go:build race

package pipeline

// The race detector makes sync.Pool drop a share of what is put back, at
// random, so an allocation guard over pooled state cannot hold under it.
func init() { raceEnabled = true }
