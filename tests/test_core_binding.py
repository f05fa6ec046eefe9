"""Binding tests: initial architecture, moves mechanics, validation."""

import pytest

from repro.errors import BindingError
from repro.cdfg.node import OpKind
from repro.core.binding import Binding, op_width
from repro.library import default_library
from repro.library.memory import ram_spec


@pytest.fixture
def gcd_binding(gcd_cdfg):
    return Binding.initial_parallel(gcd_cdfg, default_library())


class TestInitialParallel:
    def test_one_fu_per_op(self, gcd_cdfg, gcd_binding):
        assert len(gcd_binding.fus) == len(gcd_cdfg.fu_nodes())
        for fu in gcd_binding.fus.values():
            assert len(fu.ops) == 1

    def test_one_register_per_variable(self, gcd_cdfg, gcd_binding):
        assert len(gcd_binding.regs) == len(gcd_cdfg.var_types)
        for reg in gcd_binding.regs.values():
            assert len(reg.carriers) == 1

    def test_fastest_modules_chosen(self, gcd_cdfg, gcd_binding):
        lib = default_library()
        for fu in gcd_binding.fus.values():
            (op,) = fu.ops
            node = gcd_cdfg.node(op)
            fastest = lib.fastest({node.kind}, op_width(gcd_cdfg, op))
            assert fu.module.name == fastest.name

    def test_validates(self, gcd_binding):
        gcd_binding.validate()

    def test_register_width_matches_variable(self, gcd_cdfg, gcd_binding):
        for var, (width, _signed) in gcd_cdfg.var_types.items():
            assert gcd_binding.reg_of(var).width == width


_SHARING_SRC = """process p(a: int8, b: int8) -> (o: int10) {
  var m: int6[8];
  var x: int8 = a - b;
  var y: int8 = b - a;
  m[a] = x;
  m[b] = m[a];
  o = m[0] + y + m[1];
}"""

#: One call of every mutator, applicable to the binding
#: :func:`_sharing_binding` returns (units 0/1 and registers 3/4 merged).
_EDITS = {
    "merge_fus": lambda b: b.merge_fus(2, 3),
    "split_fu": lambda b: b.split_fu(0, {3}),
    "substitute_module": lambda b: b.substitute_module(
        0, default_library().get("sub_ripple")),
    "merge_regs": lambda b: b.merge_regs(0, 1),
    "split_reg": lambda b: b.split_reg(3, {"y"}),
    "bind_mem_port": lambda b: b.bind_mem_port("m", 4, 1),
    "substitute_ram": lambda b: b.substitute_ram("m", ram_spec("ram_1p")),
}


def _sharing_binding() -> Binding:
    from repro.lang import parse

    binding = Binding.initial_parallel(parse(_SHARING_SRC), default_library())
    binding.merge_fus(0, 1)
    binding.merge_regs(3, 4)
    return binding


def _content(binding: Binding) -> tuple:
    """Everything a binding holds, read from the instances themselves."""
    return (
        {i: (fu.module.name, fu.width, sorted(fu.ops))
         for i, fu in binding.fus.items()},
        dict(binding.op_to_fu),
        {i: (reg.width, sorted(reg.carriers))
         for i, reg in binding.regs.items()},
        dict(binding.carrier_to_reg),
        {name: (mem.spec.name, mem.width, mem.depth, dict(mem.port_of))
         for name, mem in binding.mems.items()},
    )


def _signature(binding: Binding) -> tuple:
    """The signature computed from scratch, without any cached part."""
    mems = tuple(
        (mem.name, mem.spec.name, mem.width, mem.depth,
         tuple(sorted(mem.port_of.items())))
        for mem in sorted(binding.mems.values(), key=lambda m: m.name))
    regs = tuple((i, reg.width, tuple(sorted(reg.carriers)))
                 for i, reg in sorted(binding.regs.items()))
    full = tuple((i, fu.module.name, fu.width, tuple(sorted(fu.ops)))
                 for i, fu in sorted(binding.fus.items()))
    return full, regs, mems


class TestClone:
    def test_clone_is_independent(self):
        # Every mutator, both ways: an edit of the clone must not reach
        # its source, nor an edit of the source made after the clone.
        for edit in _EDITS.values():
            for edit_clone in (True, False):
                source = _sharing_binding()
                clone = source.clone()
                edited, other = (clone, source) if edit_clone else (source, clone)
                other.signature()
                before = _content(other)
                edit(edited)
                edited.validate()
                assert _content(edited) != before
                assert _content(other) == before
                assert other.signature() == _signature(other)

    def test_signatures_follow_every_edit(self):
        # Cached per-instance parts must never outlive an edit, whether
        # the edit copies a shared instance or changes an owned one.
        for edit in _EDITS.values():
            source = _sharing_binding()
            clone = source.clone()
            for binding in (source, clone, _sharing_binding()):
                binding.signature()
                edit(binding)
                assert binding.signature() == _signature(binding)

    def test_clone_shares_every_instance_until_an_edit(self):
        source = _sharing_binding()
        clone = source.clone()
        assert all(clone.fus[i] is fu for i, fu in source.fus.items())
        assert all(clone.regs[i] is reg for i, reg in source.regs.items())
        assert all(clone.mems[n] is mem for n, mem in source.mems.items())
        clone.substitute_module(0, default_library().get("sub_ripple"))
        assert clone.fus[0] is not source.fus[0]
        assert clone.fus[2] is source.fus[2]

    def test_unshared_binding_edits_in_place(self):
        binding = _sharing_binding()
        fu = binding.fus[0]
        binding.substitute_module(0, default_library().get("sub_ripple"))
        assert binding.fus[0] is fu

    def test_clone_preserves_structure(self, gcd_binding):
        other = gcd_binding.clone()
        assert other.op_to_fu == gcd_binding.op_to_fu
        assert other.carrier_to_reg == gcd_binding.carrier_to_reg


class TestFUMoves:
    def test_merge_compatible_fus(self, gcd_cdfg, gcd_binding):
        subs = [f.id for f in gcd_binding.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        assert len(subs) == 2
        gcd_binding.merge_fus(subs[0], subs[1])
        assert subs[1] not in gcd_binding.fus
        assert len(gcd_binding.fus[subs[0]].ops) == 2
        gcd_binding.validate()

    def test_merge_incompatible_without_module_fails(self, gcd_cdfg, gcd_binding):
        lib = default_library()
        sub = next(f.id for f in gcd_binding.fus.values()
                   if f.kinds(gcd_cdfg) == {OpKind.SUB})
        gt = next(f.id for f in gcd_binding.fus.values()
                  if f.kinds(gcd_cdfg) == {OpKind.GT})
        with pytest.raises(BindingError):
            gcd_binding.merge_fus(sub, gt)  # sub module can't compare

    def test_merge_with_alu_module(self, gcd_cdfg, gcd_binding):
        lib = default_library()
        sub = next(f.id for f in gcd_binding.fus.values()
                   if f.kinds(gcd_cdfg) == {OpKind.SUB})
        gt = next(f.id for f in gcd_binding.fus.values()
                  if f.kinds(gcd_cdfg) == {OpKind.GT})
        gcd_binding.merge_fus(sub, gt, lib.get("alu"))
        gcd_binding.validate()

    def test_split_restores_parallelism(self, gcd_cdfg, gcd_binding):
        subs = [f.id for f in gcd_binding.fus.values()
                if f.kinds(gcd_cdfg) == {OpKind.SUB}]
        gcd_binding.merge_fus(subs[0], subs[1])
        ops = sorted(gcd_binding.fus[subs[0]].ops)
        new_fu = gcd_binding.split_fu(subs[0], {ops[0]})
        assert gcd_binding.op_to_fu[ops[0]] == new_fu.id
        gcd_binding.validate()

    def test_split_whole_set_rejected(self, gcd_cdfg, gcd_binding):
        fu_id = next(iter(gcd_binding.fus))
        ops = set(gcd_binding.fus[fu_id].ops)
        with pytest.raises(BindingError):
            gcd_binding.split_fu(fu_id, ops)

    def test_substitute_module(self, gcd_cdfg, gcd_binding):
        lib = default_library()
        sub = next(f for f in gcd_binding.fus.values()
                   if f.kinds(gcd_cdfg) == {OpKind.SUB})
        gcd_binding.substitute_module(sub.id, lib.get("sub_ripple"))
        assert gcd_binding.fus[sub.id].module.name == "sub_ripple"
        gcd_binding.validate()

    def test_substitute_incompatible_rejected(self, gcd_cdfg, gcd_binding):
        lib = default_library()
        sub = next(f for f in gcd_binding.fus.values()
                   if f.kinds(gcd_cdfg) == {OpKind.SUB})
        with pytest.raises(BindingError):
            gcd_binding.substitute_module(sub.id, lib.get("mul_array"))


class TestRegisterMoves:
    def test_merge_and_split(self, gcd_cdfg, gcd_binding):
        regs = sorted(gcd_binding.regs)
        keep, absorb = regs[0], regs[1]
        absorbed_carriers = set(gcd_binding.regs[absorb].carriers)
        gcd_binding.merge_regs(keep, absorb)
        assert absorb not in gcd_binding.regs
        for carrier in absorbed_carriers:
            assert gcd_binding.carrier_to_reg[carrier] == keep
        carrier = next(iter(absorbed_carriers))
        new_reg = gcd_binding.split_reg(keep, {carrier})
        assert gcd_binding.carrier_to_reg[carrier] == new_reg.id
        gcd_binding.validate()

    def test_merged_register_width_is_max(self, gcd_cdfg, gcd_binding):
        regs = sorted(gcd_binding.regs)
        w = max(gcd_binding.regs[regs[0]].width, gcd_binding.regs[regs[1]].width)
        gcd_binding.merge_regs(regs[0], regs[1])
        assert gcd_binding.regs[regs[0]].width == w

    def test_self_merge_rejected(self, gcd_binding):
        reg = next(iter(gcd_binding.regs))
        with pytest.raises(BindingError):
            gcd_binding.merge_regs(reg, reg)


class TestDelays:
    def test_copy_has_zero_delay(self, gcd_cdfg, gcd_binding):
        copies = [n for n in gcd_cdfg.op_nodes() if n.kind is OpKind.COPY]
        assert copies
        for node in copies:
            assert gcd_binding.op_delay(node.id) == 0.0

    def test_fu_op_has_positive_delay(self, gcd_cdfg, gcd_binding):
        for node in gcd_cdfg.fu_nodes():
            assert gcd_binding.op_delay(node.id) > 0.0
