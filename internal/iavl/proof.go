package iavl

import (
	"bytes"
	"fmt"

	"scmove/internal/codec"
	"scmove/internal/hashing"
	"scmove/internal/trie"
)

// Prove returns an encoded membership proof for key: the canonical encodings
// of every node on the search path from the root to the key's node, with the
// direction taken at every interior step.
func (t *Tree) Prove(key []byte) ([]byte, error) {
	if len(key) != t.keyLen {
		return nil, fmt.Errorf("%w: got %d want %d", trie.ErrKeyLength, len(key), t.keyLen)
	}
	// Find the path first: the proof opens with its length, and knowing it
	// sizes the one buffer the proof is written into.
	var pathBuf [spineDepth]*node
	path, size := pathBuf[:0], 0
	if t.Stubs() > 0 {
		t.openPath(key)
	}
	for n := t.root; ; {
		if n == nil {
			return nil, fmt.Errorf("%w: key absent", trie.ErrInvalidProof)
		}
		path = append(path, n)
		size += len(n.key) + len(n.value)
		cmp := bytes.Compare(key, n.key)
		if cmp == 0 {
			break
		}
		if cmp < 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	// Besides key and value a step holds a tag, two child hashes, up to
	// three length prefixes and its direction.
	w := codec.NewWriter(size + 80*len(path))
	w.WriteUvarint(uint64(len(path)))
	t.RootHash() // nodes encode their children's cached hashes
	var enc [encScratch]byte
	for i, n := range path {
		w.WriteBytes(n.appendEncode(enc[:0]))
		if i+1 < len(path) {
			w.WriteBool(path[i+1] == n.right) // false: went left
		}
	}
	return w.Bytes(), nil
}

// VerifyProof checks an encoded membership proof against root and returns
// the proven key-value entry (the key/value of the final node on the path).
func VerifyProof(root hashing.Hash, proof []byte) (trie.ProvenEntry, error) {
	r := codec.NewReader(proof)
	steps := r.ReadUvarint()
	if steps == 0 || steps > 1<<16 {
		return trie.ProvenEntry{}, fmt.Errorf("%w: bad step count", trie.ErrInvalidProof)
	}
	expected := root
	for i := uint64(0); i < steps; i++ {
		enc := r.ReadBytes()
		if r.Err() != nil {
			return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, r.Err())
		}
		if hashing.Sum(enc) != expected {
			return trie.ProvenEntry{}, fmt.Errorf("%w: hash mismatch at step %d", trie.ErrInvalidProof, i)
		}
		nr := codec.NewReader(enc)
		if tag := nr.ReadUvarint(); tag != tagNode {
			return trie.ProvenEntry{}, fmt.Errorf("%w: unknown node tag %d", trie.ErrInvalidProof, tag)
		}
		key := nr.ReadBytes()
		value := nr.ReadBytes()
		leftHash := nr.ReadHash()
		rightHash := nr.ReadHash()
		if err := nr.Finish(); err != nil {
			return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, err)
		}
		if i == steps-1 {
			if err := r.Finish(); err != nil {
				return trie.ProvenEntry{}, fmt.Errorf("%w: %v", trie.ErrInvalidProof, err)
			}
			return trie.ProvenEntry{Key: key, Value: value}, nil
		}
		goRight := r.ReadBool()
		if goRight {
			expected = rightHash
		} else {
			expected = leftHash
		}
		if expected.IsZero() {
			return trie.ProvenEntry{}, fmt.Errorf("%w: path descends into empty subtree", trie.ErrInvalidProof)
		}
	}
	return trie.ProvenEntry{}, fmt.Errorf("%w: unreachable", trie.ErrInvalidProof)
}
