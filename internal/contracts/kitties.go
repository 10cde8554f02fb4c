package contracts

import (
	"fmt"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// Registry names of the ScalableKitties contracts.
const (
	KittyRegistryName = "ScalableKitties"
	KittyName         = "Kitty"
)

// Event topics.
var (
	TopicKittyCreated = hashing.Sum([]byte("KittyCreated(address)"))
	TopicPregnant     = hashing.Sum([]byte("Pregnant(uint)"))
)

// KittyCreated decodes, from a createPromoKitty or giveBirth receipt's
// logs, the address of the Kitty the registry spawned.
func KittyCreated(logs []*evm.Log) (hashing.Address, error) {
	data, err := eventData(logs, TopicKittyCreated, "KittyCreated")
	if err != nil {
		return hashing.Address{}, err
	}
	return AsAddress(data)
}

// Pregnant decodes, from a breed receipt's logs, the pregnancy id that
// giveBirth takes.
func Pregnant(logs []*evm.Log) (uint64, error) {
	data, err := eventData(logs, TopicPregnant, "Pregnant")
	if err != nil {
		return 0, err
	}
	return u256.FromBytes(data).Uint64(), nil
}

// Registry storage slots (application region 0x03).
func kittySlot(n byte) evm.Word {
	var w evm.Word
	w[0] = 0x03
	w[31] = n
	return w
}

var (
	slotKittySalt     = kittySlot(1)
	slotPregnancySeq  = kittySlot(2)
	prefixPregnancy   = byte(0xB0) // pregnancy id -> packed record
	prefixPregOwner   = byte(0xB1) // pregnancy id -> child owner
	prefixPregParentA = byte(0xB2)
	prefixPregParentB = byte(0xB3)
)

// KittyRegistry is the ScalableKitties master contract (§V-B): it creates
// promotional cats, validates breeding requests (ownership, siring
// approval, the no-siblings rule), and — in a second transaction, as in
// CryptoKitties — gives birth to a new Kitty contract. Each cat is its own
// movable contract, so cats rather than the whole game migrate between
// shards.
type KittyRegistry struct{}

var _ evm.Native = KittyRegistry{}

// Name implements evm.Native.
func (KittyRegistry) Name() string { return KittyRegistryName }

// CodeSize emulates the deployed game contract.
func (KittyRegistry) CodeSize() int { return 8000 }

// OnCreate stores the game owner.
func (KittyRegistry) OnCreate(call *evm.NativeCall, args []byte) error {
	method, argv, err := DecodeCall(args)
	if err != nil || method != "init" {
		return fmt.Errorf("%w: registry constructor", ErrBadCall)
	}
	if err := wantArgs("init", argv, 1); err != nil {
		return err
	}
	owner, err := AsAddress(argv[0])
	if err != nil {
		return err
	}
	return SetOwner(call, owner)
}

// Run dispatches registry methods.
func (kr KittyRegistry) Run(call *evm.NativeCall, input []byte) ([]byte, error) {
	method, args, err := DecodeCall(input)
	if err != nil {
		return nil, err
	}
	switch method {
	case "createPromoKitty":
		// createPromoKitty(genes, owner): only the game owner mints promos.
		if err := wantArgs(method, args, 2); err != nil {
			return nil, err
		}
		if err := requireOwner(call); err != nil {
			return nil, err
		}
		genes, err := AsWord(args[0])
		if err != nil {
			return nil, err
		}
		owner, err := AsAddress(args[1])
		if err != nil {
			return nil, err
		}
		addr, err := kr.spawn(call, owner, genes, hashing.ZeroAddress, hashing.ZeroAddress)
		if err != nil {
			return nil, err
		}
		return RetAddress(addr), nil
	case "breed":
		// breed(catA, saltA, catB, saltB): caller must own A; B must allow
		// siring; siblings cannot mate. Records a pregnancy.
		if err := wantArgs(method, args, 4); err != nil {
			return nil, err
		}
		return kr.breed(call, args)
	case "giveBirth":
		// giveBirth(pregnancyID): creates the child Kitty contract — a new
		// contract creation paying code-deposit gas again (Fig. 9).
		if err := wantArgs(method, args, 1); err != nil {
			return nil, err
		}
		id, err := AsUint(args[0])
		if err != nil {
			return nil, err
		}
		return kr.giveBirth(call, id)
	default:
		return nil, fmt.Errorf("%w: ScalableKitties.%s", ErrUnknownCall, method)
	}
}

// spawn creates a Kitty contract with the next salt.
func (kr KittyRegistry) spawn(call *evm.NativeCall, owner hashing.Address, genes evm.Word, parentA, parentB hashing.Address) (hashing.Address, error) {
	saltW, err := call.GetStorage(slotKittySalt)
	if err != nil {
		return hashing.Address{}, err
	}
	counter := uintOfWord(saltW)
	if err := call.SetStorage(slotKittySalt, wordOfUint(counter+1)); err != nil {
		return hashing.Address{}, err
	}
	// Registries are deployed at the same address on every shard; the chain
	// id in the salt keeps cat identifiers globally unique (§III-G(a)).
	salt := uniqueSalt(call.ChainID(), counter)
	addr, err := call.CreateNative(KittyName, saltWord(salt),
		KittyConstructorArgs(owner, genes, parentA, parentB, salt), u256.Zero())
	if err != nil {
		return hashing.Address{}, fmt.Errorf("spawn kitty: %w", err)
	}
	if err := call.Emit([]hashing.Hash{TopicKittyCreated}, addr.Bytes()); err != nil {
		return hashing.Address{}, err
	}
	return addr, nil
}

// breed validates the pair and records a pregnancy; the child is created by
// a later giveBirth transaction.
func (kr KittyRegistry) breed(call *evm.NativeCall, args [][]byte) ([]byte, error) {
	catA, err := AsAddress(args[0])
	if err != nil {
		return nil, err
	}
	saltA, err := AsUint(args[1])
	if err != nil {
		return nil, err
	}
	catB, err := AsAddress(args[2])
	if err != nil {
		return nil, err
	}
	saltB, err := AsUint(args[3])
	if err != nil {
		return nil, err
	}
	// Origin attestation: both cats were created by this registry.
	for _, pair := range []struct {
		cat  hashing.Address
		salt uint64
	}{{catA, saltA}, {catB, saltB}} {
		expected, err := expectedSibling(call, call.Self(), pair.salt, KittyName)
		if err != nil {
			return nil, err
		}
		if expected != pair.cat {
			return nil, fmt.Errorf("%w: %s is not kitty #%d", ErrBadOrigin, pair.cat, pair.salt)
		}
	}
	// The caller must own cat A.
	ownerA, err := kittyOwner(call, catA)
	if err != nil {
		return nil, err
	}
	if ownerA != call.Caller() {
		return nil, fmt.Errorf("%w: breed caller does not own %s", ErrNotOwner, catA)
	}
	// Cat B must permit siring with A (same owner, or explicit approval).
	canRet, err := call.StaticCall(catB, EncodeCall("canSireWith", ArgAddress(catA), ArgAddress(call.Caller())))
	if err != nil {
		return nil, err
	}
	if len(canRet) != 1 || canRet[0] != 1 {
		return nil, fmt.Errorf("contracts: %s has not approved siring with %s", catB, catA)
	}
	// Sibling check: cats sharing a parent (or parent-child pairs) cannot
	// mate.
	if err := kr.checkLineage(call, catA, catB); err != nil {
		return nil, err
	}
	genesA, err := kittyGenes(call, catA)
	if err != nil {
		return nil, err
	}
	genesB, err := kittyGenes(call, catB)
	if err != nil {
		return nil, err
	}
	childGenes := mixGenes(genesA, genesB)

	seqW, err := call.GetStorage(slotPregnancySeq)
	if err != nil {
		return nil, err
	}
	id := uintOfWord(seqW) + 1
	if err := call.SetStorage(slotPregnancySeq, wordOfUint(id)); err != nil {
		return nil, err
	}
	idKey := wordOfUint(id)
	if err := call.SetStorage(mapSlot(prefixPregnancy, idKey[:]), childGenes); err != nil {
		return nil, err
	}
	if err := call.SetStorage(mapSlot(prefixPregOwner, idKey[:]), wordOfAddress(ownerA)); err != nil {
		return nil, err
	}
	if err := call.SetStorage(mapSlot(prefixPregParentA, idKey[:]), wordOfAddress(catA)); err != nil {
		return nil, err
	}
	if err := call.SetStorage(mapSlot(prefixPregParentB, idKey[:]), wordOfAddress(catB)); err != nil {
		return nil, err
	}
	if err := call.Emit([]hashing.Hash{TopicPregnant}, idKey[:]); err != nil {
		return nil, err
	}
	return RetUint(id), nil
}

// giveBirth turns a recorded pregnancy into a new Kitty contract.
func (kr KittyRegistry) giveBirth(call *evm.NativeCall, id uint64) ([]byte, error) {
	idKey := wordOfUint(id)
	genes, err := call.GetStorage(mapSlot(prefixPregnancy, idKey[:]))
	if err != nil {
		return nil, err
	}
	if genes == (evm.Word{}) {
		return nil, fmt.Errorf("contracts: no pregnancy #%d", id)
	}
	ownerW, err := call.GetStorage(mapSlot(prefixPregOwner, idKey[:]))
	if err != nil {
		return nil, err
	}
	parentAW, err := call.GetStorage(mapSlot(prefixPregParentA, idKey[:]))
	if err != nil {
		return nil, err
	}
	parentBW, err := call.GetStorage(mapSlot(prefixPregParentB, idKey[:]))
	if err != nil {
		return nil, err
	}
	// Consume the pregnancy.
	if err := call.SetStorage(mapSlot(prefixPregnancy, idKey[:]), evm.Word{}); err != nil {
		return nil, err
	}
	addr, err := kr.spawn(call, addressOfWord(ownerW), genes, addressOfWord(parentAW), addressOfWord(parentBW))
	if err != nil {
		return nil, err
	}
	return RetAddress(addr), nil
}

// checkLineage rejects sibling and parent-child pairs.
func (kr KittyRegistry) checkLineage(call *evm.NativeCall, catA, catB hashing.Address) error {
	pa, err := kittyParents(call, catA)
	if err != nil {
		return err
	}
	pb, err := kittyParents(call, catB)
	if err != nil {
		return err
	}
	for _, x := range pa {
		if x.IsZero() {
			continue
		}
		for _, y := range pb {
			if x == y {
				return fmt.Errorf("contracts: %s and %s are siblings", catA, catB)
			}
		}
		if x == catB {
			return fmt.Errorf("contracts: %s is a parent of %s", catB, catA)
		}
	}
	for _, y := range pb {
		if y == catA {
			return fmt.Errorf("contracts: %s is a parent of %s", catA, catB)
		}
	}
	return nil
}

func kittyOwner(call *evm.NativeCall, cat hashing.Address) (hashing.Address, error) {
	ret, err := call.StaticCall(cat, EncodeCall("owner"))
	if err != nil {
		return hashing.Address{}, err
	}
	return AsAddress(ret)
}

func kittyGenes(call *evm.NativeCall, cat hashing.Address) (evm.Word, error) {
	ret, err := call.StaticCall(cat, EncodeCall("genes"))
	if err != nil {
		return evm.Word{}, err
	}
	return AsWord(ret)
}

func kittyParents(call *evm.NativeCall, cat hashing.Address) ([2]hashing.Address, error) {
	ret, err := call.StaticCall(cat, EncodeCall("parents"))
	if err != nil {
		return [2]hashing.Address{}, err
	}
	if len(ret) != 2*hashing.AddressSize {
		return [2]hashing.Address{}, fmt.Errorf("%w: parents view", ErrBadCall)
	}
	var out [2]hashing.Address
	copy(out[0][:], ret[:hashing.AddressSize])
	copy(out[1][:], ret[hashing.AddressSize:])
	return out, nil
}

// mixGenes derives child genes deterministically from the parents.
func mixGenes(a, b evm.Word) evm.Word {
	h := hashing.Sum(a[:], b[:])
	var w evm.Word
	copy(w[:], h[:])
	return w
}

// Kitty storage slots.
var (
	slotGenes        = kittySlot(10)
	slotParentA      = kittySlot(11)
	slotParentB      = kittySlot(12)
	slotSireApproved = kittySlot(13)
)

// Kitty is one cat: a movable contract holding genes, lineage, and siring
// approval. Moving a cat to another shard moves only this contract — the
// granularity argument of the paper's introduction.
type Kitty struct {
	Residency uint64
}

var _ evm.Native = Kitty{}

// Name implements evm.Native.
func (Kitty) Name() string { return KittyName }

// CodeSize emulates the deployed cat contract.
func (Kitty) CodeSize() int { return 4000 }

// KittyConstructorArgs builds OnCreate args.
func KittyConstructorArgs(owner hashing.Address, genes evm.Word, parentA, parentB hashing.Address, salt uint64) []byte {
	return EncodeCall("init",
		ArgAddress(owner), ArgWord(genes), ArgAddress(parentA), ArgAddress(parentB), ArgUint(salt))
}

// OnCreate stores the cat's identity.
func (Kitty) OnCreate(call *evm.NativeCall, args []byte) error {
	method, argv, err := DecodeCall(args)
	if err != nil || method != "init" {
		return fmt.Errorf("%w: kitty constructor", ErrBadCall)
	}
	if err := wantArgs("init", argv, 5); err != nil {
		return err
	}
	owner, err := AsAddress(argv[0])
	if err != nil {
		return err
	}
	genes, err := AsWord(argv[1])
	if err != nil {
		return err
	}
	parentA, err := AsAddress(argv[2])
	if err != nil {
		return err
	}
	parentB, err := AsAddress(argv[3])
	if err != nil {
		return err
	}
	salt, err := AsUint(argv[4])
	if err != nil {
		return err
	}
	if err := SetOwner(call, owner); err != nil {
		return err
	}
	if err := storeParentAndSalt(call, salt); err != nil {
		return err
	}
	if err := call.SetStorage(slotGenes, genes); err != nil {
		return err
	}
	if !parentA.IsZero() {
		if err := call.SetStorage(slotParentA, wordOfAddress(parentA)); err != nil {
			return err
		}
	}
	if !parentB.IsZero() {
		if err := call.SetStorage(slotParentB, wordOfAddress(parentB)); err != nil {
			return err
		}
	}
	return nil
}

// Run dispatches Kitty methods.
func (k Kitty) Run(call *evm.NativeCall, input []byte) ([]byte, error) {
	if handled, err := (Movable{MinResidency: k.Residency}).Dispatch(call, input); handled {
		return nil, err
	}
	method, args, err := DecodeCall(input)
	if err != nil {
		return nil, err
	}
	switch method {
	case "owner":
		owner, err := Owner(call)
		if err != nil {
			return nil, err
		}
		return RetAddress(owner), nil
	case "genes":
		genes, err := call.GetStorage(slotGenes)
		if err != nil {
			return nil, err
		}
		return genes[:], nil
	case "salt":
		_, salt, err := parentAndSalt(call)
		if err != nil {
			return nil, err
		}
		return RetUint(salt), nil
	case "parents":
		pa, err := call.GetStorage(slotParentA)
		if err != nil {
			return nil, err
		}
		pb, err := call.GetStorage(slotParentB)
		if err != nil {
			return nil, err
		}
		out := append(addressOfWord(pa).Bytes(), addressOfWord(pb).Bytes()...)
		return out, nil
	case "approveSiring":
		// approveSiring(cat): the owner permits this cat to be sired by cat.
		if err := wantArgs(method, args, 1); err != nil {
			return nil, err
		}
		if err := requireOwner(call); err != nil {
			return nil, err
		}
		cat, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		return RetBool(true), call.SetStorage(slotSireApproved, wordOfAddress(cat))
	case "canSireWith":
		// canSireWith(cat, catOwner): same owner, or cat was approved.
		if err := wantArgs(method, args, 2); err != nil {
			return nil, err
		}
		cat, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		catOwner, err := AsAddress(args[1])
		if err != nil {
			return nil, err
		}
		owner, err := Owner(call)
		if err != nil {
			return nil, err
		}
		if owner == catOwner {
			return RetBool(true), nil
		}
		approvedW, err := call.GetStorage(slotSireApproved)
		if err != nil {
			return nil, err
		}
		return RetBool(addressOfWord(approvedW) == cat), nil
	case "transferOwner":
		if err := wantArgs(method, args, 1); err != nil {
			return nil, err
		}
		if err := requireOwner(call); err != nil {
			return nil, err
		}
		newOwner, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		return RetBool(true), SetOwner(call, newOwner)
	default:
		return nil, fmt.Errorf("%w: Kitty.%s", ErrUnknownCall, method)
	}
}
