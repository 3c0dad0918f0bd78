"""Self-tests for the benchmark: python3 bench/selftest.py"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import decks  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402

MODS = run.load_program()


def _run_job(job, workdir):
    job = dict(job, id=0)
    run.write_inputs([job], Path(workdir))
    return job, runner.run(MODS, job)


class SameSeedSameInputs(unittest.TestCase):
    def test_decks_are_byte_identical_per_seed(self):
        for workload in decks.WORKLOADS:
            a = decks.canonical(decks.build(workload, 7))
            self.assertEqual(a, decks.canonical(decks.build(workload, 7)), workload)
            self.assertNotEqual(a, decks.canonical(decks.build(workload, 8)), workload)


class CheckerFlagsTampering(unittest.TestCase):
    """A correct report passes; one flipped sign or count fails."""

    def _tampered(self, job, edit):
        run.OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            job, res = _run_job(job, tmp)
        self.assertEqual(checks.check(job, res["code"], res["out"], res["err"], {}), [])
        bad = edit(json.loads(res["out"]))
        return checks.check(job, res["code"], json.dumps(bad) + "\n", res["err"], {})

    def test_flipped_facet_sign(self):
        def flip(rows):
            rows[3]["sign"] = -rows[3]["sign"]
            return rows
        self.assertTrue(self._tampered(decks._polytope("K", 6, "facets"), flip))

    def test_changed_face_count(self):
        def bump(fv):
            fv[1] += 1
            return fv
        self.assertTrue(self._tampered(decks._polytope("K", 6, "fv"), bump))

    def test_flipped_square_zero(self):
        job = decks._chain_check(decks.random.Random(1), 4, mutant=False)
        self.assertTrue(self._tampered(job, lambda r: dict(r, square_zero=False)))

    def test_wrong_rank(self):
        job = decks._hf_block(decks.random.Random(1), 0, 4, "unit", 4, 2, (1,), False)
        def bump(r):
            r["ranks"]["0"] += 1
            return r
        self.assertTrue(self._tampered(job, bump))


class ForkedJobsAreIsolated(unittest.TestCase):
    def test_module_change_in_one_job_is_invisible_to_the_next(self):
        def mutate(mods, job):
            mods["novikov"].INFINITY = -1
            mods["polytopes"].f_vector("K", 6)        # fills the tree caches
            print("mutated")
            return 0

        def probe(mods, job):
            print(json.dumps([mods["novikov"].INFINITY,
                              mods["polytopes"]._plain_trees.cache_info().currsize]))
            return 0

        runner.CALLS.update(mutate=mutate, probe=probe)
        try:
            first = runner.run(MODS, {"id": 0, "call": "mutate"})
            second = runner.run(MODS, {"id": 1, "call": "probe"})
        finally:
            del runner.CALLS["mutate"], runner.CALLS["probe"]
        self.assertEqual((first["code"], first["out"]), (0, "mutated\n"))
        self.assertEqual(json.loads(second["out"]), [float("inf"), 0])
        self.assertEqual(MODS["novikov"].INFINITY, float("inf"))


if __name__ == "__main__":
    unittest.main()
