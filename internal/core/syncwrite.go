package core

import "hdnh/internal/kv"

// The synchronous write mechanism (paper §3.4): every write has an NVM half
// — the record persisted in the non-volatile table, the OCF updated — and a
// DRAM half that mirrors the change into the hot table, and it returns only
// once both are applied. The paper runs the DRAM half on a background thread
// so it overlaps the NVM write; here the writing goroutine applies it itself
// (a goroutine hand-off costs several times the ≤ 0.3 µs the mirror does; see
// DESIGN.md §3.4), under the key's NVT slot locks. That placement is the whole
// coherence argument:
//
//   - Every mirror is applied while the write still holds the key's slot
//     locks, so two writers of one key mirror in the order they commit: the
//     later one cannot lock the slot until the earlier one's mirror is in.
//   - An insert mirrors at stage time, right after it has announced its slot
//     (the key is fresh and the slot locked under its fingerprint, so nothing
//     can race it) — unless its value is an out-of-line record, whose
//     pointer exists only once the record is reserved: that insert mirrors
//     with the updates, after its commit word, so no reader follows the
//     pointer to a record not yet acknowledged.
//   - Updates and deletes mirror after their commit words are durable and
//     before anything is published or retired (between phases C and D of
//     commitGroup), so the cache never shows a value a crash could take
//     back.
//   - A search-path fill carries the OCF control word the reader observed
//     and is validated against it under the hot bucket lock: a slot a writer
//     has locked, or retired since (a version bump), rejects the fill, and a
//     fill that validates first is overwritten by that writer's own mirror,
//     which takes the same bucket lock afterwards.

// mirrorPut applies the DRAM half of an insert or update.
func (s *session) mirrorPut(k kv.Key, v kv.Value, h1 uint64, fp uint8) {
	if ht := s.t.hot; ht != nil {
		ht.put(k, v, h1, fp, s.rng)
	}
}

// mirrorDel applies the DRAM half of a delete.
func (s *session) mirrorDel(k kv.Key, h1 uint64, fp uint8) {
	if ht := s.t.hot; ht != nil {
		ht.del(k, h1, fp)
	}
}

// fillHot re-caches a record a search found in the NVT, validated against
// the OCF word the search observed.
func (s *session) fillHot(k kv.Key, v kv.Value, h1 uint64, fp uint8, src *level, b int64, slot int, ctrl uint32) {
	if ht := s.t.hot; ht != nil {
		ht.fill(k, v, h1, fp, src, b, slot, ctrl, s.rng)
	}
}
