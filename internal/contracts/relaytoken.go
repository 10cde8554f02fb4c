package contracts

import (
	"fmt"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// Registry names of the currency-relay contracts (Fig. 3).
const (
	TokenRelayName  = "TokenRelay"
	PeggedTokenName = "PeggedToken"
)

// Event topics of the relay contracts.
var (
	// TopicMinted is emitted when pegged tokens are minted on the target.
	TopicMinted = hashing.Sum([]byte("Minted(address,uint)"))
	// TopicRelayCreated is emitted with the new pegged token's address.
	TopicRelayCreated = hashing.Sum([]byte("RelayCreated(address)"))
)

// RelayCreated decodes, from a TokenRelay create receipt's logs, the pegged
// token the relay created.
func RelayCreated(logs []*evm.Log) (hashing.Address, error) {
	data, err := eventData(logs, TopicRelayCreated, "RelayCreated")
	if err != nil {
		return hashing.Address{}, err
	}
	return AsAddress(data)
}

// Relay storage slots (application region 0x04).
func relaySlot(n byte) evm.Word {
	var w evm.Word
	w[0] = 0x04
	w[31] = n
	return w
}

var (
	slotRelaySalt  = relaySlot(1)
	slotHomeChain  = relaySlot(2)
	slotAmount     = relaySlot(3)
	slotMinted     = relaySlot(4)
	prefixTokenBal = byte(0xC0)
)

// TokenRelay implements the currency transfer scheme of §III-F / Fig. 3: a
// client calls create(targetChain, beneficiary) with e units of native
// currency attached; the relay creates a PeggedToken contract r holding e
// and immediately executes Move1 on it. Once moved and recreated on the
// target chain, the beneficiary mints tokens provably backed by the e
// locked on the source chain.
type TokenRelay struct{}

var _ evm.Native = TokenRelay{}

// Name implements evm.Native.
func (TokenRelay) Name() string { return TokenRelayName }

// CodeSize emulates the deployed relay.
func (TokenRelay) CodeSize() int { return 2000 }

// OnCreate needs no arguments.
func (TokenRelay) OnCreate(*evm.NativeCall, []byte) error { return nil }

// Run dispatches relay methods.
func (tr TokenRelay) Run(call *evm.NativeCall, input []byte) ([]byte, error) {
	method, args, err := DecodeCall(input)
	if err != nil {
		return nil, err
	}
	switch method {
	case "create":
		// create(targetChain, beneficiary) payable: Fig. 3's Tcreate.
		if err := wantArgs(method, args, 2); err != nil {
			return nil, err
		}
		target, err := AsUint(args[0])
		if err != nil {
			return nil, err
		}
		beneficiary, err := AsAddress(args[1])
		if err != nil {
			return nil, err
		}
		amount := call.Value()
		if amount.IsZero() {
			return nil, fmt.Errorf("%w: create needs attached currency", ErrBadCall)
		}
		saltW, err := call.GetStorage(slotRelaySalt)
		if err != nil {
			return nil, err
		}
		salt := uintOfWord(saltW)
		if err := call.SetStorage(slotRelaySalt, wordOfUint(salt+1)); err != nil {
			return nil, err
		}
		// Create r with the attached e and run Move1 on it in the same
		// transaction ("it executes Move1(Bj) on creation", §III-F).
		r, err := call.CreateNative(PeggedTokenName, saltWord(salt),
			PeggedTokenConstructorArgs(beneficiary, uint64(call.ChainID())), amount)
		if err != nil {
			return nil, fmt.Errorf("create pegged token: %w", err)
		}
		if _, err := call.Call(r, EncodeCall("relayMove", ArgUint(target)), u256.Zero()); err != nil {
			return nil, err
		}
		if err := call.Emit([]hashing.Hash{TopicRelayCreated}, r.Bytes()); err != nil {
			return nil, err
		}
		return RetAddress(r), nil
	default:
		return nil, fmt.Errorf("%w: TokenRelay.%s", ErrUnknownCall, method)
	}
}

// PeggedToken is the contract r of Fig. 3: it carries e units of source-
// chain currency, moves to the target chain, and mints tokens there that
// are provably backed by the locked e. Moving it home again lets the
// beneficiary withdraw the native currency (unlocking, §III-F).
type PeggedToken struct{}

var _ evm.Native = PeggedToken{}

// Name implements evm.Native.
func (PeggedToken) Name() string { return PeggedTokenName }

// CodeSize emulates the deployed pegged-token contract.
func (PeggedToken) CodeSize() int { return 2500 }

// PeggedTokenConstructorArgs builds OnCreate args.
func PeggedTokenConstructorArgs(beneficiary hashing.Address, homeChain uint64) []byte {
	return EncodeCall("init", ArgAddress(beneficiary), ArgUint(homeChain))
}

// OnCreate records the beneficiary (as owner), home chain, and the locked
// amount (the attached value).
func (PeggedToken) OnCreate(call *evm.NativeCall, args []byte) error {
	method, argv, err := DecodeCall(args)
	if err != nil || method != "init" {
		return fmt.Errorf("%w: pegged token constructor", ErrBadCall)
	}
	if err := wantArgs("init", argv, 2); err != nil {
		return err
	}
	beneficiary, err := AsAddress(argv[0])
	if err != nil {
		return err
	}
	home, err := AsUint(argv[1])
	if err != nil {
		return err
	}
	if err := SetOwner(call, beneficiary); err != nil {
		return err
	}
	if err := call.SetStorage(slotHomeChain, wordOfUint(home)); err != nil {
		return err
	}
	if err := storeParentAndSalt(call, 0); err != nil {
		return err
	}
	return setU256(call, slotAmount, call.Value())
}

// Run dispatches PeggedToken methods.
func (pt PeggedToken) Run(call *evm.NativeCall, input []byte) ([]byte, error) {
	if handled, err := (Movable{}).Dispatch(call, input); handled {
		return nil, err
	}
	method, args, err := DecodeCall(input)
	if err != nil {
		return nil, err
	}
	switch method {
	case "relayMove":
		// relayMove(target): Move1 executed by the creating relay.
		if err := wantArgs(method, args, 1); err != nil {
			return nil, err
		}
		parent, _, err := parentAndSalt(call)
		if err != nil {
			return nil, err
		}
		if call.Caller() != parent {
			return nil, fmt.Errorf("%w: relayMove from %s", ErrNotOwner, call.Caller())
		}
		target, err := AsUint(args[0])
		if err != nil {
			return nil, err
		}
		return nil, call.Move(hashing.ChainID(target))
	case "amount":
		amount, err := getU256(call, slotAmount)
		if err != nil {
			return nil, err
		}
		return RetU256(amount), nil
	case "mint":
		// mint(): Fig. 3's Tmint — only the beneficiary, only away from
		// home, only once.
		if err := wantArgs(method, args, 0); err != nil {
			return nil, err
		}
		if err := requireOwner(call); err != nil {
			return nil, err
		}
		homeW, err := call.GetStorage(slotHomeChain)
		if err != nil {
			return nil, err
		}
		if uintOfWord(homeW) == uint64(call.ChainID()) {
			return nil, fmt.Errorf("%w: cannot mint on the home chain", ErrBadCall)
		}
		mintedW, err := call.GetStorage(slotMinted)
		if err != nil {
			return nil, err
		}
		if mintedW != (evm.Word{}) {
			return nil, fmt.Errorf("%w: already minted", ErrBadCall)
		}
		if err := call.SetStorage(slotMinted, wordOfUint(1)); err != nil {
			return nil, err
		}
		amount, err := getU256(call, slotAmount)
		if err != nil {
			return nil, err
		}
		owner := call.Caller()
		if err := setU256(call, mapSlot(prefixTokenBal, owner[:]), amount); err != nil {
			return nil, err
		}
		if err := call.Emit([]hashing.Hash{TopicMinted}, append(owner.Bytes(), RetU256(amount)...)); err != nil {
			return nil, err
		}
		return RetU256(amount), nil
	case "tokenBalance":
		if err := wantArgs(method, args, 1); err != nil {
			return nil, err
		}
		who, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		bal, err := getU256(call, mapSlot(prefixTokenBal, who[:]))
		if err != nil {
			return nil, err
		}
		return RetU256(bal), nil
	case "tokenTransfer":
		// tokenTransfer(to, amount): move pegged tokens between holders on
		// the target chain.
		if err := wantArgs(method, args, 2); err != nil {
			return nil, err
		}
		to, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		amount, err := AsU256(args[1])
		if err != nil {
			return nil, err
		}
		from := call.Caller()
		fromBal, err := getU256(call, mapSlot(prefixTokenBal, from[:]))
		if err != nil {
			return nil, err
		}
		if fromBal.Lt(amount) {
			return nil, fmt.Errorf("%w: token balance %s below %s", ErrInsufficient, fromBal, amount)
		}
		toBal, err := getU256(call, mapSlot(prefixTokenBal, to[:]))
		if err != nil {
			return nil, err
		}
		if err := setU256(call, mapSlot(prefixTokenBal, from[:]), fromBal.Sub(amount)); err != nil {
			return nil, err
		}
		return RetBool(true), setU256(call, mapSlot(prefixTokenBal, to[:]), toBal.Add(amount))
	case "burnAndReturn":
		// burnAndReturn(): the token holder burns all pegged tokens and
		// sends the contract home, where withdraw() unlocks the currency.
		if err := wantArgs(method, args, 0); err != nil {
			return nil, err
		}
		holder := call.Caller()
		bal, err := getU256(call, mapSlot(prefixTokenBal, holder[:]))
		if err != nil {
			return nil, err
		}
		amount, err := getU256(call, slotAmount)
		if err != nil {
			return nil, err
		}
		if !bal.Eq(amount) {
			return nil, fmt.Errorf("%w: must hold all %s tokens to return", ErrInsufficient, amount)
		}
		if err := setU256(call, mapSlot(prefixTokenBal, holder[:]), u256.Zero()); err != nil {
			return nil, err
		}
		if err := call.SetStorage(slotMinted, evm.Word{}); err != nil {
			return nil, err
		}
		// The returning holder becomes the owner entitled to withdraw.
		if err := SetOwner(call, holder); err != nil {
			return nil, err
		}
		homeW, err := call.GetStorage(slotHomeChain)
		if err != nil {
			return nil, err
		}
		return nil, call.Move(hashing.ChainID(uintOfWord(homeW)))
	case "withdraw":
		// withdraw(): on the home chain, pay out the locked currency.
		if err := wantArgs(method, args, 0); err != nil {
			return nil, err
		}
		if err := requireOwner(call); err != nil {
			return nil, err
		}
		homeW, err := call.GetStorage(slotHomeChain)
		if err != nil {
			return nil, err
		}
		if uintOfWord(homeW) != uint64(call.ChainID()) {
			return nil, fmt.Errorf("%w: withdraw only on the home chain", ErrBadCall)
		}
		amount, err := getU256(call, slotAmount)
		if err != nil {
			return nil, err
		}
		if err := setU256(call, slotAmount, u256.Zero()); err != nil {
			return nil, err
		}
		return RetU256(amount), call.Transfer(call.Caller(), amount)
	default:
		return nil, fmt.Errorf("%w: PeggedToken.%s", ErrUnknownCall, method)
	}
}
