package pcs

// ResetCommitTables drops the cached commitment tables so the next Commit
// rebuilds them. Tests and benchmarks use it to reach the cold path.
func ResetCommitTables() {
	for _, cc := range []*commitTableCache{&kzgCommitTables, &ipaCommitTables} {
		cc.mu.Lock()
		cc.table.Store(nil)
		cc.declined = 0
		cc.mu.Unlock()
	}
}
