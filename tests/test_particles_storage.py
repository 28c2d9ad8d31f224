"""Particle-storage tests: SoA/AoS parity, reorder, memory layout."""

import numpy as np
import pytest

from repro.particles import ParticleAoS, ParticleSoA, make_storage, particle_fields


@pytest.fixture(params=["soa", "aos"])
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
        assert isinstance(make_storage("soa", 10), ParticleSoA)
        assert isinstance(make_storage("aos", 10), ParticleAoS)

    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError):
            make_storage("csr", 10)

    def test_layout_attribute(self):
        assert make_storage("soa", 1).layout == "soa"
        assert make_storage("aos", 1).layout == "aos"


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
        state = fill(storage, rng)
        perm = rng.permutation(storage.n)
        out = storage.reorder(perm)
        assert out is not storage
        for k, v in state.items():
            np.testing.assert_array_equal(np.asarray(getattr(out, k)), v[perm])
        # original untouched
        np.testing.assert_array_equal(np.asarray(storage.dx), state["dx"])

    def test_reorder_into_buffer(self, storage, rng):
        state = fill(storage, rng)
        buf = storage.clone_empty()
        out = storage.reorder(np.arange(storage.n)[::-1], out=buf)
        assert out is buf
        np.testing.assert_array_equal(np.asarray(buf.vy), state["vy"][::-1])

    def test_reorder_rejects_wrong_buffer_type(self, storage):
        other = make_storage("aos" if storage.layout == "soa" else "soa", storage.n)
        with pytest.raises(TypeError):
            storage.reorder(np.arange(storage.n), out=other)

    def test_clone_empty_same_shape(self, storage):
        c = storage.clone_empty()
        assert c.n == storage.n
        assert c.weight == storage.weight
        assert c.layout == storage.layout

    def test_total_charge(self, storage):
        assert storage.total_charge(-1.0) == pytest.approx(-0.5 * 100)

    def test_as_dict_copies(self, storage, rng):
        fill(storage, rng)
        d = storage.as_dict()
        d["vx"][:] = 99.0
        assert not np.any(np.asarray(storage.vx) == 99.0)


class TestCoordsOptional:
    @pytest.mark.parametrize("layout", ["soa", "aos"])
    def test_no_coords_raises_on_access(self, layout):
        s = make_storage(layout, 5, store_coords=False)
        with pytest.raises(AttributeError):
            _ = s.ix
        with pytest.raises(AttributeError):
            _ = s.iy

    @pytest.mark.parametrize("layout", ["soa", "aos"])
    def test_set_state_without_coords(self, layout, rng):
        s = make_storage(layout, 5, store_coords=False)
        s.set_state(np.arange(5), *(rng.random(5) for _ in range(4)))
        assert "ix" not in s.as_dict()

    @pytest.mark.parametrize("layout", ["soa", "aos"])
    def test_set_state_missing_coords_raises(self, layout, rng):
        s = make_storage(layout, 5, store_coords=True)
        with pytest.raises(ValueError):
            s.set_state(np.arange(5), *(rng.random(5) for _ in range(4)))


class TestLayoutDifferences:
    def test_soa_views_contiguous(self, rng):
        s = make_storage("soa", 50)
        assert s.vx.strides == (8,)

    def test_aos_views_strided(self, rng):
        s = make_storage("aos", 50, store_coords=True)
        # record = 7 fields x 8 bytes
        assert s.vx.strides == (56,)


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
        from repro.particles import sort_in_place, sort_out_of_place

        p = ParticleSoA(self.N, 1.0, store_coords, ndim)
        p.set_state(**_random_state(p.keys(), self.N, rng))
        q = p.clone_empty()
        q.set_state(**p)
        sort_in_place(p, 64)
        out = sort_out_of_place(q, 64)
        assert np.all(np.diff(p.icell) >= 0)
        for name in p.keys():
            np.testing.assert_array_equal(p[name], out[name])


def test_aos_takes_its_record_from_the_same_tuple():
    for store_coords in (True, False):
        s = ParticleAoS(5, store_coords=store_coords)
        assert s._data.dtype.names == particle_fields(2, store_coords)
        assert s.ndim == 2


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
