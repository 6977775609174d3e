package wal

// Corrupt flips one byte inside a stored segment — crash-test helper.
func (s *MemSink) Corrupt(firstSeq int64, off int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.segs[firstSeq]; off < len(b) {
		b[off] ^= 0xff
	}
}

// AppendRaw tacks arbitrary bytes onto a stored segment — torn-tail helper.
func (s *MemSink) AppendRaw(firstSeq int64, raw []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs[firstSeq] = append(s.segs[firstSeq], raw...)
}
