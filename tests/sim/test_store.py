"""Store semantics."""

import pytest

from repro.sim import Environment, Store


class TestStore:
    def test_fifo_order(self, env):
        st = Store(env)

        def producer(env, st):
            for i in range(3):
                yield st.put(i)

        def consumer(env, st):
            got = []
            for _ in range(3):
                item = yield st.get()
                got.append(item)
            return got

        env.process(producer(env, st))
        assert env.run(until=env.process(consumer(env, st))) == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        st = Store(env)

        def consumer(env, st):
            item = yield st.get()
            return (env.now, item)

        def producer(env, st):
            yield env.timeout(4)
            yield st.put("late")

        c = env.process(consumer(env, st))
        env.process(producer(env, st))
        assert env.run(until=c) == (4, "late")

    def test_capacity_blocks_put(self, env):
        st = Store(env, capacity=1)

        def producer(env, st):
            yield st.put("a")
            yield st.put("b")
            return env.now

        def consumer(env, st):
            yield env.timeout(5)
            yield st.get()

        p = env.process(producer(env, st))
        env.process(consumer(env, st))
        assert env.run(until=p) == 5

    def test_len_reflects_items(self, env):
        st = Store(env)

        def proc(env, st):
            yield st.put(1)
            yield st.put(2)
            return len(st)

        assert env.run(until=env.process(proc(env, st))) == 2

    def test_get_cancel_is_idempotent(self, env):
        st = Store(env)

        def proc(env, st):
            get = st.get()
            get.cancel()
            get.cancel()
            yield st.put("x")
            return st.items

        # The cancelled get must not consume the item.
        assert env.run(until=env.process(proc(env, st))) == ["x"]

    def test_bad_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_remove_withdraws_item(self, env):
        st = Store(env)

        def proc(env, st):
            yield st.put("a")
            yield st.put("b")
            yield st.put("c")
            assert st.remove("b") is True
            got = []
            got.append((yield st.get()))
            got.append((yield st.get()))
            return got

        assert env.run(until=env.process(proc(env, st))) == ["a", "c"]

    def test_remove_absent_item_returns_false(self, env):
        st = Store(env)

        def proc(env, st):
            yield st.put("a")
            return st.remove("zzz")

        assert env.run(until=env.process(proc(env, st))) is False

    def test_remove_admits_blocked_put(self, env):
        st = Store(env, capacity=1)

        def producer(env, st):
            yield st.put("a")
            yield st.put("b")  # blocks on capacity
            return env.now

        def remover(env, st):
            yield env.timeout(3)
            st.remove("a")

        p = env.process(producer(env, st))
        env.process(remover(env, st))
        # The tombstone freed the slot: the blocked put completes.
        assert env.run(until=p) == 3
        assert st.items == ["b"]
