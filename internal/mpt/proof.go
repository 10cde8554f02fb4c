package mpt

import (
	"bytes"
	"fmt"

	"scmove/internal/codec"
	"scmove/internal/hashing"
	"scmove/internal/trie"
)

// Prove returns an encoded membership proof for key: the canonical encodings
// of every node on the path from the root to the key's leaf, with the branch
// directions taken. The proof is self-contained — verification reconstructs
// both the key and the value from the committed path.
func (t *Tree) Prove(key []byte) ([]byte, error) {
	if len(key) != t.keyLen {
		return nil, fmt.Errorf("%w: got %d want %d", trie.ErrKeyLength, len(key), t.keyLen)
	}
	// Find the path first: the proof opens with its length, and knowing it
	// sizes the one buffer the proof is written into.
	var pathBuf [16]*node
	path, size := pathBuf[:0], 0
	nibs := t.keyNibbles(key)
	if t.Stubs() > 0 {
		t.openPath(nibs)
	}
	for n, rest := t.root, nibs; ; {
		if n == nil {
			return nil, fmt.Errorf("%w: key absent", trie.ErrInvalidProof)
		}
		path = append(path, n)
		// Upper bounds of a step: the encoding, its length prefix and, after
		// a branch, the direction taken.
		if n.kind == kindLeaf {
			if !bytes.Equal(n.nibbles, rest) {
				return nil, fmt.Errorf("%w: key absent", trie.ErrInvalidProof)
			}
			size += 16 + len(n.nibbles) + len(n.value)
			break
		}
		if n.kind == kindExt {
			if !bytes.HasPrefix(rest, n.nibbles) {
				return nil, fmt.Errorf("%w: key absent", trie.ErrInvalidProof)
			}
			size += 8 + len(n.nibbles) + hashing.HashSize
			n, rest = n.child, rest[len(n.nibbles):]
		} else {
			if len(rest) == 0 {
				return nil, fmt.Errorf("%w: key absent", trie.ErrInvalidProof)
			}
			size += 4 + 1 + 16*hashing.HashSize
			n, rest = n.children[rest[0]], rest[1:]
		}
	}
	w := codec.NewWriter(size + 4)
	w.WriteUvarint(uint64(len(path)))
	t.RootHash() // nodes encode their children's cached hashes
	var enc [encScratch]byte
	for _, n := range path {
		w.WriteBytes(n.appendEncode(enc[:0]))
		switch n.kind {
		case kindExt:
			nibs = nibs[len(n.nibbles):]
		case kindBranch:
			w.WriteUvarint(uint64(nibs[0]))
			nibs = nibs[1:]
		}
	}
	return w.Bytes(), nil
}

// VerifyProof checks an encoded membership proof against root and returns
// the proven key-value entry.
func VerifyProof(root hashing.Hash, proof []byte) (trie.ProvenEntry, error) {
	r := codec.NewReader(proof)
	steps := r.ReadUvarint()
	if steps == 0 || steps > 1<<16 {
		return trie.ProvenEntry{}, fmt.Errorf("%w: bad step count", trie.ErrInvalidProof)
	}
	expected := root
	var keyNibs []byte
	for i := uint64(0); i < steps; i++ {
		enc := r.ReadBytes()
		if r.Err() != nil {
			return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, r.Err())
		}
		if hashing.Sum(enc) != expected {
			return trie.ProvenEntry{}, fmt.Errorf("%w: hash mismatch at step %d", trie.ErrInvalidProof, i)
		}
		last := i == steps-1
		nr := codec.NewReader(enc)
		switch tag := nr.ReadUvarint(); tag {
		case tagLeaf:
			if !last {
				return trie.ProvenEntry{}, fmt.Errorf("%w: interior leaf", trie.ErrInvalidProof)
			}
			nibs := nr.ReadBytes()
			value := nr.ReadBytes()
			if err := nr.Finish(); err != nil {
				return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, err)
			}
			keyNibs = append(keyNibs, nibs...)
			if len(keyNibs)%2 != 0 {
				return trie.ProvenEntry{}, fmt.Errorf("%w: odd nibble count", trie.ErrInvalidProof)
			}
			if err := r.Finish(); err != nil {
				return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, err)
			}
			return trie.ProvenEntry{Key: nibblesToBytes(keyNibs), Value: value}, nil
		case tagExt:
			if last {
				return trie.ProvenEntry{}, fmt.Errorf("%w: proof ends at extension", trie.ErrInvalidProof)
			}
			nibs := nr.ReadBytes()
			expected = nr.ReadHash()
			if err := nr.Finish(); err != nil {
				return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, err)
			}
			keyNibs = append(keyNibs, nibs...)
		case tagBranch:
			if last {
				return trie.ProvenEntry{}, fmt.Errorf("%w: proof ends at branch", trie.ErrInvalidProof)
			}
			var hashes [16]hashing.Hash
			for j := 0; j < 16; j++ {
				hashes[j] = nr.ReadHash()
			}
			if err := nr.Finish(); err != nil {
				return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, err)
			}
			dir := r.ReadUvarint()
			if r.Err() != nil || dir > 15 || hashes[dir].IsZero() {
				return trie.ProvenEntry{}, fmt.Errorf("%w: bad branch direction", trie.ErrInvalidProof)
			}
			expected = hashes[dir]
			keyNibs = append(keyNibs, byte(dir))
		default:
			return trie.ProvenEntry{}, fmt.Errorf("%w: unknown node tag %d", trie.ErrInvalidProof, tag)
		}
	}
	return trie.ProvenEntry{}, fmt.Errorf("%w: proof ended before leaf", trie.ErrInvalidProof)
}
