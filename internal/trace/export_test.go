package trace

// ZipfTableMisses reports how many Zipf tables the process memo has had
// to build or rebuild, for the external tests.
func ZipfTableMisses() int64 { return zipfTables.Stats().Misses }
