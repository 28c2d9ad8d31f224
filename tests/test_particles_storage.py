"""Particle-storage tests: the SoA store, reorder, memory layout."""

import numpy as np
import pytest

from repro.particles import ParticleSoA, make_storage, particle_fields


@pytest.fixture(params=["soa"])
def storage(request):
    return make_storage(request.param, 100, weight=0.5, store_coords=True)


def fill(storage, rng):
    n = storage.n
    state = dict(
        icell=rng.integers(0, 64, n),
        dx=rng.random(n),
        dy=rng.random(n),
        vx=rng.normal(size=n),
        vy=rng.normal(size=n),
        ix=rng.integers(0, 8, n),
        iy=rng.integers(0, 8, n),
    )
    storage.set_state(**state)
    return state


class TestFactory:
    def test_makes_correct_types(self):
        assert type(make_storage("soa", 10)) is ParticleSoA

    def test_rejects_unknown_layout(self):
        """``"soa"`` is the one stored layout: the AoS one the paper
        starts from is priced by the model, and stores nothing."""
        for layout in ("csr", "aos"):
            with pytest.raises(ValueError, match="unknown particle layout"):
                make_storage(layout, 10)


class TestCommonBehaviour:
    def test_set_and_read_state(self, storage, rng):
        state = fill(storage, rng)
        for k, v in state.items():
            np.testing.assert_array_equal(np.asarray(getattr(storage, k)), v)

    def test_inplace_mutation_through_views(self, storage, rng):
        fill(storage, rng)
        storage.vx[:] = 0.0
        assert np.all(np.asarray(storage.vx) == 0.0)
        storage.dx[:10] += 0.0  # slice views also writable
        storage.icell[0] = 63
        assert storage.icell[0] == 63

    def test_reorder_out_of_place(self, storage, rng):
        """Without ``out`` the store permutes its own columns and
        returns itself, every column gathered into another array."""
        state = fill(storage, rng)
        before = dict(storage)
        perm = rng.permutation(storage.n)
        assert storage.reorder(perm) is storage
        for k, v in state.items():
            np.testing.assert_array_equal(np.asarray(getattr(storage, k)), v[perm])
            assert storage[k] is not before[k]

    def test_reorder_into_buffer(self, storage, rng):
        state = fill(storage, rng)
        buf = storage.clone_empty()
        out = storage.reorder(np.arange(storage.n)[::-1], out=buf)
        assert out is buf
        np.testing.assert_array_equal(np.asarray(buf.vy), state["vy"][::-1])

    @pytest.mark.parametrize("bad", [100, 10**12, -101])
    def test_reorder_out_of_range_raises_before_writing(self, storage, rng, bad):
        """A permutation entry outside ``[-n, n)`` raises NumPy's
        ``IndexError`` and leaves every column of ``out`` — or, without
        ``out``, of the store — as it was; in-range negative entries
        count from the end, as in NumPy."""
        state = fill(storage, rng)
        buf = storage.clone_empty()
        fill(buf, rng)
        before = buf.as_dict()
        perm = rng.permutation(storage.n)
        perm[57] = bad
        with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
            storage.reorder(perm, out=buf)
        for k, v in before.items():
            np.testing.assert_array_equal(buf[k], v)
        with pytest.raises(IndexError, match=f"index {bad} is out of bounds"):
            storage.reorder(perm)
        for k, v in state.items():
            np.testing.assert_array_equal(storage[k], v)
        perm[57] = -1
        storage.reorder(perm, out=buf)
        for k, v in state.items():
            np.testing.assert_array_equal(buf[k], np.take(v, perm))

    def test_reorder_rejects_wrong_buffer_type(self, storage):
        other = storage.clone_empty().as_dict()  # a plain mapping
        with pytest.raises(TypeError):
            storage.reorder(np.arange(storage.n), out=other)

    def test_clone_empty_same_shape(self, storage):
        c = storage.clone_empty()
        assert c.n == storage.n
        assert c.weight == storage.weight
        assert type(c) is type(storage)

    def test_total_charge(self, storage):
        assert storage.total_charge(-1.0) == pytest.approx(-0.5 * 100)

    def test_as_dict_copies(self, storage, rng):
        fill(storage, rng)
        d = storage.as_dict()
        d["vx"][:] = 99.0
        assert not np.any(np.asarray(storage.vx) == 99.0)


class TestCoordsOptional:
    @pytest.mark.parametrize("layout", ["soa"])
    def test_no_coords_raises_on_access(self, layout):
        s = make_storage(layout, 5, store_coords=False)
        with pytest.raises(AttributeError):
            _ = s.ix
        with pytest.raises(AttributeError):
            _ = s.iy

    @pytest.mark.parametrize("layout", ["soa"])
    def test_set_state_without_coords(self, layout, rng):
        s = make_storage(layout, 5, store_coords=False)
        s.set_state(np.arange(5), *(rng.random(5) for _ in range(4)))
        assert "ix" not in s.as_dict()

    @pytest.mark.parametrize("layout", ["soa"])
    def test_set_state_missing_coords_raises(self, layout, rng):
        s = make_storage(layout, 5, store_coords=True)
        with pytest.raises(ValueError):
            s.set_state(np.arange(5), *(rng.random(5) for _ in range(4)))


class TestLayoutDifferences:
    def test_soa_views_contiguous(self, rng):
        s = make_storage("soa", 50)
        assert s.vx.strides == (8,)


# ----------------------------------------------------------------------
# The axis-generic SoA store: one column tuple, two or three dimensions
# ----------------------------------------------------------------------
@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def ndim(request):
    return request.param


@pytest.fixture(params=[True, False], ids=["coords", "no-coords"])
def store_coords(request):
    return request.param


def _random_state(names, n, rng):
    return {
        k: rng.integers(0, 64, n) if k[0] == "i" else rng.normal(size=n)
        for k in names
    }


class TestAxisGenericSoA:
    N = 37

    def test_columns_come_from_particle_fields(self, ndim, store_coords):
        axes = "xyz"[:ndim]
        want = ["icell"] + ["d" + a for a in axes] + ["v" + a for a in axes]
        if store_coords:
            want += ["i" + a for a in axes]
        assert list(particle_fields(ndim, store_coords)) == want
        p = ParticleSoA(self.N, 0.5, store_coords, ndim)
        assert list(p.keys()) == want
        for name in want:
            assert p[name].shape == (self.N,)
            assert p[name].dtype == (np.int64 if name[0] == "i" else np.float64)
            assert not p[name].any()  # allocated zero-filled

    def test_set_state_by_position_and_by_name(self, ndim, store_coords, rng):
        names = particle_fields(ndim, store_coords)
        state = _random_state(names, self.N, rng)
        by_name = ParticleSoA(self.N, 1.0, store_coords, ndim)
        by_name.set_state(**state)
        by_position = by_name.clone_empty()
        by_position.set_state(*state.values())
        for name in names:
            np.testing.assert_array_equal(by_name[name], state[name])
            np.testing.assert_array_equal(by_position[name], state[name])

    def test_set_state_missing_column_raises(self, ndim, store_coords, rng):
        names = particle_fields(ndim, store_coords)
        state = _random_state(names[:-1], self.N, rng)
        with pytest.raises(ValueError, match=names[-1]):
            ParticleSoA(self.N, 1.0, store_coords, ndim).set_state(**state)

    def test_reorder_into_buffer(self, ndim, store_coords, rng):
        p = ParticleSoA(self.N, 1.0, store_coords, ndim)
        state = _random_state(p.keys(), self.N, rng)
        p.set_state(**state)
        perm = rng.permutation(self.N)
        buf = p.clone_empty()
        assert p.reorder(perm, out=buf) is buf
        for name, arr in buf.items():
            np.testing.assert_array_equal(arr, state[name][perm])
            np.testing.assert_array_equal(p[name], state[name])  # source intact

    def test_clone_empty_keeps_shape(self, ndim, store_coords):
        p = ParticleSoA(self.N, 0.25, store_coords, ndim)
        c = p.clone_empty()
        assert type(c) is ParticleSoA
        assert (c.n, c.weight, c.store_coords, c.ndim) == (self.N, 0.25, store_coords, ndim)
        assert c.keys() == p.keys()
        assert all(c[k] is not p[k] for k in p.keys())

    def test_mapping_protocol_and_attributes_agree(self, ndim, store_coords):
        p = ParticleSoA(self.N, 1.0, store_coords, ndim)
        as_dict = dict(p)
        assert list(as_dict) == list(p.keys())
        for name, arr in p.items():
            assert as_dict[name] is arr is p[name] is getattr(p, name)
            assert name in p
        missing = {"dz", "vz", "ix", "iy", "iz"} - set(p.keys())
        for name in missing:
            assert name not in p
            with pytest.raises(KeyError):
                p[name]
            with pytest.raises(AttributeError, match=name):
                getattr(p, name)
        with pytest.raises(TypeError):  # read-only: columns are not rebindable
            p["dx"] = np.zeros(self.N)

    def test_sort_in_place_and_out_of_place_agree(self, ndim, store_coords, rng):
        """The one sort — ``reorder`` without ``out``, which permutes
        the store's own columns through its spares — equals the gather
        into a second store, column for column, for any cut of the
        rows.  The first sort allocates the two spares, one per dtype,
        and no sort allocates anything more: every column owns an array
        of its own dtype."""
        from repro.particles import counting_sort_permutation

        p = ParticleSoA(self.N, 1.0, store_coords, ndim)
        assert p._spares == {}
        arrays = None
        cuts = (None, [slice(0, self.N)],
                [slice(0, 8), slice(8, 8), slice(8, 29), slice(29, None)])
        for cut in cuts:
            p.set_state(**_random_state(p.keys(), self.N, rng))
            perm = counting_sort_permutation(p.icell, 64)
            want = p.reorder(perm, out=p.clone_empty())
            map_rows = None if cut is None else (
                lambda gather, cut=cut: [gather(rows) for rows in cut])
            assert p.reorder(perm, map_rows=map_rows) is p
            assert np.all(np.diff(p.icell) >= 0)
            for name in p.keys():
                np.testing.assert_array_equal(p[name], want[name], err_msg=name)
                assert p[name].dtype == (np.int64 if name[0] == "i" else np.float64)
                assert p[name].base is None
            assert {a.dtype for a in p._spares.values()} == {
                np.dtype(np.int64), np.dtype(np.float64)}
            assert len(p._spares) == 2
            now = {id(a) for a in (*dict(p).values(), *p._spares.values())}
            assert now == (arrays or now)
            arrays = now


def test_shared_storage_flip_on_a_3d_store():
    """The engine's commit on ten columns: bindings are exchanged, not
    copied, and only the named ones."""
    from repro.parallel.shm import SharedArena, SharedParticleStorage

    arena = SharedArena()
    try:
        front = SharedParticleStorage(8, 1.0, True, 3, arena=arena)
        back = front.clone_empty()
        assert back.ndim == 3 and isinstance(back, SharedParticleStorage)
        assert all(arena.owns(arr) for _k, arr in (*front.items(), *back.items()))
        was_front, was_back = dict(front), dict(back)
        staged = [k for k in front.keys() if k[0] != "v"]
        front.flip(back, staged)
        for name in front.keys():
            flipped = name in staged
            assert front[name] is (was_back if flipped else was_front)[name]
            assert back[name] is (was_front if flipped else was_back)[name]
        plain = ParticleSoA(8, 1.0, True, 3)
        plain.set_state(**{k: np.arange(8) for k in plain.keys()})
        moved = SharedParticleStorage.from_storage(plain, arena)
        assert moved.ndim == 3 and moved.keys() == plain.keys()
        assert all(np.array_equal(moved[k], plain[k]) for k in plain.keys())
    finally:
        arena.close()
