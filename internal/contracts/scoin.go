package contracts

import (
	"fmt"

	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// Registry names of the token contracts.
const (
	SCoinName    = "SCoin"
	SAccountName = "SAccount"
)

// Event topics.
var (
	TopicCreatedAccount = hashing.Sum([]byte("CreatedAccount(address,uint)"))
	TopicTransfer       = hashing.Sum([]byte("Transfer(address,uint)"))
	TopicApproval       = hashing.Sum([]byte("Approval(address,uint)"))
)

// SCoin-specific storage slots (application region, first byte 0x02).
func scoinSlot(n byte) evm.Word {
	var w evm.Word
	w[0] = 0x02
	w[31] = n
	return w
}

var (
	slotTotalSupply = scoinSlot(1)
	slotSaltCounter = scoinSlot(2)
	slotGrant       = scoinSlot(3)
)

// SCoin implements the STokenI interface of Listing 2: a scalable token
// whose per-user balances live in individual movable SAccount contracts
// created with CREATE2 salts, instead of one balances map that could never
// be split across blockchains (§V-A).
type SCoin struct{}

var _ evm.Native = SCoin{}

// Name implements evm.Native.
func (SCoin) Name() string { return SCoinName }

// CodeSize emulates the deployed token factory.
func (SCoin) CodeSize() int { return 3000 }

// OnCreate stores the owner and per-account grant.
func (SCoin) OnCreate(call *evm.NativeCall, args []byte) error {
	method, argv, err := DecodeCall(args)
	if err != nil || method != "init" {
		return fmt.Errorf("%w: scoin constructor", ErrBadCall)
	}
	if err := wantArgs("init", argv, 2); err != nil {
		return err
	}
	owner, err := AsAddress(argv[0])
	if err != nil {
		return err
	}
	grant, err := AsU256(argv[1])
	if err != nil {
		return err
	}
	if err := SetOwner(call, owner); err != nil {
		return err
	}
	return setU256(call, slotGrant, grant)
}

// Run dispatches STokenI methods: totalSupply, newAccount, newAccountFor.
func (sc SCoin) Run(call *evm.NativeCall, input []byte) ([]byte, error) {
	method, args, err := DecodeCall(input)
	if err != nil {
		return nil, err
	}
	switch method {
	case "totalSupply":
		supply, err := getU256(call, slotTotalSupply)
		if err != nil {
			return nil, err
		}
		return RetU256(supply), nil
	case "newAccount":
		if err := wantArgs(method, args, 0); err != nil {
			return nil, err
		}
		return sc.newAccountFor(call, call.Caller())
	case "newAccountFor":
		if err := wantArgs(method, args, 1); err != nil {
			return nil, err
		}
		owner, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		return sc.newAccountFor(call, owner)
	default:
		return nil, fmt.Errorf("%w: SCoin.%s", ErrUnknownCall, method)
	}
}

// newAccountFor creates a fresh SAccount with a monotonically increasing
// salt (the attestation material of §V-A), grants it the faucet amount,
// and emits CreatedAccount(account, salt).
func (sc SCoin) newAccountFor(call *evm.NativeCall, owner hashing.Address) ([]byte, error) {
	saltW, err := call.GetStorage(slotSaltCounter)
	if err != nil {
		return nil, err
	}
	counter := uintOfWord(saltW)
	if err := call.SetStorage(slotSaltCounter, wordOfUint(counter+1)); err != nil {
		return nil, err
	}
	// Token factories are deployed at the same address on every shard (via
	// CREATE2); mixing the chain id into the salt keeps account identifiers
	// globally unique across the whole sharded system (§III-G(a)).
	salt := uniqueSalt(call.ChainID(), counter)
	grant, err := getU256(call, slotGrant)
	if err != nil {
		return nil, err
	}
	addr, err := call.CreateNative(SAccountName, saltWord(salt),
		SAccountConstructorArgs(owner, salt, grant), u256.Zero())
	if err != nil {
		return nil, fmt.Errorf("new account: %w", err)
	}
	supply, err := getU256(call, slotTotalSupply)
	if err != nil {
		return nil, err
	}
	if err := setU256(call, slotTotalSupply, supply.Add(grant)); err != nil {
		return nil, err
	}
	saltEnc := wordOfUint(salt)
	event := append(addr.Bytes(), saltEnc[:]...)
	if err := call.Emit([]hashing.Hash{TopicCreatedAccount}, event); err != nil {
		return nil, err
	}
	// Return the account address followed by its salt.
	return event, nil
}

// CreatedAccount decodes, from a newAccount receipt's logs, the account the
// factory created and its salt.
func CreatedAccount(logs []*evm.Log) (hashing.Address, uint64, error) {
	data, err := eventData(logs, TopicCreatedAccount, "CreatedAccount")
	if err != nil {
		return hashing.Address{}, 0, err
	}
	return DecodeNewAccountResult(data)
}

// DecodeNewAccountResult parses newAccount's return value.
func DecodeNewAccountResult(ret []byte) (hashing.Address, uint64, error) {
	if len(ret) != hashing.AddressSize+32 {
		return hashing.Address{}, 0, fmt.Errorf("%w: newAccount result", ErrBadCall)
	}
	addr, err := AsAddress(ret[:hashing.AddressSize])
	if err != nil {
		return hashing.Address{}, 0, err
	}
	var w evm.Word
	copy(w[:], ret[hashing.AddressSize:])
	return addr, uintOfWord(w), nil
}

// SAccount-specific storage slots.
var (
	slotBalance = scoinSlot(10)
)

// SAccount implements the AccountI interface of Listing 2: one user's token
// balance as a movable contract. Transfers between accounts attest each
// other's origin with the CREATE2 salt check before crediting (§V-A).
type SAccount struct {
	// Residency guards repeated moves (Listing 1's "3 days"; zero in the
	// experiments).
	Residency uint64
}

var _ evm.Native = SAccount{}

// Name implements evm.Native.
func (SAccount) Name() string { return SAccountName }

// CodeSize emulates the deployed per-user account contract; at 200 gas per
// byte its recreation cost dominates SCoin's Move2 on the Ethereum-like
// chain, reproducing the ≈70 % creation share of Fig. 9.
func (SAccount) CodeSize() int { return 3700 }

// SAccountConstructorArgs builds OnCreate args.
func SAccountConstructorArgs(owner hashing.Address, salt uint64, balance u256.Int) []byte {
	return EncodeCall("init", ArgAddress(owner), ArgUint(salt), ArgU256(balance))
}

// OnCreate stores owner, the creating token with the salt, and the initial
// balance.
func (SAccount) OnCreate(call *evm.NativeCall, args []byte) error {
	method, argv, err := DecodeCall(args)
	if err != nil || method != "init" {
		return fmt.Errorf("%w: saccount constructor", ErrBadCall)
	}
	if err := wantArgs("init", argv, 3); err != nil {
		return err
	}
	owner, err := AsAddress(argv[0])
	if err != nil {
		return err
	}
	salt, err := AsUint(argv[1])
	if err != nil {
		return err
	}
	balance, err := AsU256(argv[2])
	if err != nil {
		return err
	}
	if err := SetOwner(call, owner); err != nil {
		return err
	}
	if err := storeParentAndSalt(call, salt); err != nil {
		return err
	}
	if balance.IsZero() {
		return nil
	}
	return setU256(call, slotBalance, balance)
}

// Run dispatches AccountI methods.
func (sa SAccount) Run(call *evm.NativeCall, input []byte) ([]byte, error) {
	if handled, err := (Movable{MinResidency: sa.Residency}).Dispatch(call, input); handled {
		return nil, err
	}
	method, args, err := DecodeCall(input)
	if err != nil {
		return nil, err
	}
	switch method {
	case "balance":
		bal, err := getU256(call, slotBalance)
		if err != nil {
			return nil, err
		}
		return RetU256(bal), nil
	case "owner":
		owner, err := Owner(call)
		if err != nil {
			return nil, err
		}
		return RetAddress(owner), nil
	case "salt":
		_, salt, err := parentAndSalt(call)
		if err != nil {
			return nil, err
		}
		return RetUint(salt), nil
	case "allowance":
		if err := wantArgs(method, args, 1); err != nil {
			return nil, err
		}
		spender, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		allowed, err := getU256(call, mapSlot(0xA0, spender[:]))
		if err != nil {
			return nil, err
		}
		return RetU256(allowed), nil
	case "approve":
		if err := wantArgs(method, args, 2); err != nil {
			return nil, err
		}
		if err := requireOwner(call); err != nil {
			return nil, err
		}
		spender, err := AsAddress(args[0])
		if err != nil {
			return nil, err
		}
		tokens, err := AsU256(args[1])
		if err != nil {
			return nil, err
		}
		if err := setU256(call, mapSlot(0xA0, spender[:]), tokens); err != nil {
			return nil, err
		}
		return RetBool(true), call.Emit([]hashing.Hash{TopicApproval}, append(spender.Bytes(), RetU256(tokens)...))
	case "transfer":
		if err := wantArgs(method, args, 3); err != nil {
			return nil, err
		}
		if err := requireOwner(call); err != nil {
			return nil, err
		}
		return sa.doTransfer(call, args)
	case "transferFrom":
		if err := wantArgs(method, args, 3); err != nil {
			return nil, err
		}
		if err := sa.spendAllowance(call, args); err != nil {
			return nil, err
		}
		return sa.doTransfer(call, args)
	case "debit":
		if err := wantArgs(method, args, 2); err != nil {
			return nil, err
		}
		return sa.debit(call, args)
	default:
		return nil, fmt.Errorf("%w: SAccount.%s", ErrUnknownCall, method)
	}
}

// doTransfer implements transfer(to, toSalt, tokens): attest the recipient
// was created by the same token with toSalt, decrement our balance, and
// call debit on the recipient.
func (sa SAccount) doTransfer(call *evm.NativeCall, args [][]byte) ([]byte, error) {
	to, err := AsAddress(args[0])
	if err != nil {
		return nil, err
	}
	toSalt, err := AsUint(args[1])
	if err != nil {
		return nil, err
	}
	tokens, err := AsU256(args[2])
	if err != nil {
		return nil, err
	}
	token, mySalt, err := parentAndSalt(call)
	if err != nil {
		return nil, err
	}
	expected, err := expectedSibling(call, token, toSalt, SAccountName)
	if err != nil {
		return nil, err
	}
	if expected != to {
		return nil, fmt.Errorf("%w: %s is not account #%d of token %s", ErrBadOrigin, to, toSalt, token)
	}
	// The recipient must be deployed on this chain: a call to an absent
	// account would trivially succeed and burn the tokens. If it still
	// lives on another chain it must be moved here first (§V-A).
	codeSize, err := call.CodeSizeOf(to)
	if err != nil {
		return nil, err
	}
	if codeSize == 0 {
		return nil, fmt.Errorf("%w: recipient %s is not on this chain", ErrBadOrigin, to)
	}
	bal, err := getU256(call, slotBalance)
	if err != nil {
		return nil, err
	}
	if bal.Lt(tokens) {
		return nil, fmt.Errorf("%w: have %s, need %s", ErrInsufficient, bal, tokens)
	}
	if err := setU256(call, slotBalance, bal.Sub(tokens)); err != nil {
		return nil, err
	}
	if _, err := call.Call(to, EncodeCall("debit", ArgU256(tokens), ArgUint(mySalt)), u256.Zero()); err != nil {
		return nil, err
	}
	if err := call.Emit([]hashing.Hash{TopicTransfer}, append(to.Bytes(), RetU256(tokens)...)); err != nil {
		return nil, err
	}
	return RetBool(true), nil
}

// spendAllowance checks and decrements the caller's allowance for
// transferFrom.
func (sa SAccount) spendAllowance(call *evm.NativeCall, args [][]byte) error {
	tokens, err := AsU256(args[2])
	if err != nil {
		return err
	}
	spender := call.Caller()
	slot := mapSlot(0xA0, spender[:])
	allowed, err := getU256(call, slot)
	if err != nil {
		return err
	}
	if allowed.Lt(tokens) {
		return fmt.Errorf("%w: allowance %s below %s", ErrInsufficient, allowed, tokens)
	}
	return setU256(call, slot, allowed.Sub(tokens))
}

// debit implements debit(tokens, fromSalt): the recipient-side credit,
// agreeing only if the caller is the account the same token created with
// fromSalt (§V-A's mutual origin check).
func (sa SAccount) debit(call *evm.NativeCall, args [][]byte) ([]byte, error) {
	tokens, err := AsU256(args[0])
	if err != nil {
		return nil, err
	}
	fromSalt, err := AsUint(args[1])
	if err != nil {
		return nil, err
	}
	token, _, err := parentAndSalt(call)
	if err != nil {
		return nil, err
	}
	expected, err := expectedSibling(call, token, fromSalt, SAccountName)
	if err != nil {
		return nil, err
	}
	if call.Caller() != expected {
		return nil, fmt.Errorf("%w: debit from %s", ErrBadOrigin, call.Caller())
	}
	bal, err := getU256(call, slotBalance)
	if err != nil {
		return nil, err
	}
	if err := setU256(call, slotBalance, bal.Add(tokens)); err != nil {
		return nil, err
	}
	return RetBool(true), nil
}
