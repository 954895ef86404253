"""Cross-reference: the attack stack's victim gadgets must scan dirty.

The attacks package carries the paper's Listing 2/3 victim functions
(:mod:`repro.attacks.victim_gadgets`); if the scanner cannot flag the
very gadget templates the exploitation layer leaks through, it is not
scanning for the right thing.  Also pins the package-level re-export
of the templates from :mod:`repro.attacks`.
"""

from repro.attacks.victim_gadgets import (
    CTL_REGS,
    STL_REGS,
    spectre_ctl_gadget,
    spectre_stl_gadget,
)
from repro.static.gadgets import scan_program


class TestScannerFlagsTheAttackTemplates:
    def test_spectre_stl_gadget(self):
        report = scan_program(spectre_stl_gadget())
        assert not report.clean
        kinds = set(report.kinds())
        # The three-load chain transmits through secret-named cache lines.
        assert "transmit-load" in kinds
        # The delayed store racing younger loads is the bypass surface.
        assert report.edges, "no store->load bypass edge found"

    def test_spectre_ctl_gadget(self):
        report = scan_program(spectre_ctl_gadget())
        assert not report.clean
        assert "transmit-load" in set(report.kinds())
        assert report.edges

    def test_gadgets_flag_even_under_ssbd(self):
        # The victim buffers are *foreign* pointers (attacker treats their
        # memory as secret), so the architectural taint — and the
        # transmit findings — survive the bypass-killing mitigations.
        for builder in (spectre_stl_gadget, spectre_ctl_gadget):
            report = scan_program(builder(), mitigation="ssbd")
            assert not report.clean
            assert all(g.channel == "arch" for g in report.gadgets)

    def test_foreign_load_sources_are_identified(self):
        report = scan_program(spectre_stl_gadget())
        assert "foreign-load" in set(report.sources.values())


class TestRenameShim:
    """The victim-gadget templates are re-exported from the package."""

    def test_attacks_package_reexports_from_the_new_home(self):
        import repro.attacks as attacks

        assert attacks.spectre_stl_gadget is spectre_stl_gadget
        assert attacks.spectre_ctl_gadget is spectre_ctl_gadget
        assert attacks.STL_REGS is STL_REGS
        assert attacks.CTL_REGS is CTL_REGS
