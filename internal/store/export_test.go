package store

// Direct per-key forms of the View methods and their string-keyed
// counterparts, for this package's tests only. A direct write is one no
// batch dirty set names, so it marks the table untracked like Restore does.

func (t *Table) ReadID(id KeyID, ts uint64) (Value, bool) { return t.View().ReadID(id, ts) }
func (t *Table) ReadRangeID(id KeyID, lo, hi uint64) []Version {
	return t.View().ReadRangeID(id, lo, hi)
}
func (t *Table) WriteID(id KeyID, ts uint64, v Value) {
	t.noteUntracked()
	t.View().WriteID(id, ts, v)
}
func (t *Table) VersionCountID(id KeyID) int { return len(t.chainAt(id)) }

func (t *Table) Read(k Key, ts uint64) (Value, bool)      { return t.ReadID(t.idOf(k), ts) }
func (t *Table) ReadRange(k Key, lo, hi uint64) []Version { return t.ReadRangeID(t.idOf(k), lo, hi) }
func (t *Table) Write(k Key, ts uint64, v Value)          { t.WriteID(t.dict.Intern(k), ts, v) }
func (t *Table) Remove(k Key, ts uint64)                  { t.RemoveID(t.idOf(k), ts) }
func (t *Table) VersionCount(k Key) int                   { return t.VersionCountID(t.idOf(k)) }

// Keys returns every key currently present, in ascending id order.
func (t *Table) Keys() []Key {
	ids := t.KeyIDs()
	out := make([]Key, len(ids))
	for i, id := range ids {
		out[i] = t.dict.Name(id)
	}
	return out
}
