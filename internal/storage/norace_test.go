//go:build !race

package storage

// raceEnabled reports a -race build, whose sync.Pool drops pooled
// objects at random: allocation counts are meaningless there.
const raceEnabled = false
