"""Carriers (mobile operators) covered by the study.

Table 3 of the paper lists the main carriers and their acronyms; dataset
D2 spans 30 carriers over 15 countries and regions.  The paper names 17
carriers explicitly and groups 13 more as "others" (Orange, Deutsche
Telekom, Vodafone, MoviStar, ...).  We encode all of them here, together
with each carrier's RAT support and LTE band holdings, which drive the
deployment generator and the per-carrier configuration profiles.

Band holdings for the four US carriers follow the paper's observations
(e.g. AT&T channels 850, 1975, 2000, 5110/5145, 5780, 9820 in Fig. 18;
EVDO/CDMA1x only in Verizon, Sprint and China Telecom).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cellnet.rat import RAT


@dataclass(frozen=True)
class Carrier:
    """One mobile operator.

    Attributes:
        acronym: Short name used throughout the paper's plots ("A" for
            AT&T, "T" for T-Mobile, ...).
        name: Full operator name.
        country: ISO-like country/region code as used in Table 3.
        rats: RATs the operator deploys.
        lte_channels: Downlink EARFCNs the operator holds, most-used
            first.  Empty for non-LTE operators (none in this study).
        umts_channels: UARFCNs for the 3G layer (3GPP family).
        gsm_channels: ARFCNs for the 2G layer (3GPP family).
        cdma_channels: Channel numbers for the 3GPP2 family (EVDO/1x).
        scale: Relative deployment size weight used by the dataset
            builder to apportion the 32k cells of D2 across carriers
            (Fig. 12 shows very uneven per-carrier cell counts).
    """

    acronym: str
    name: str
    country: str
    rats: tuple[RAT, ...]
    lte_channels: tuple[int, ...] = ()
    umts_channels: tuple[int, ...] = ()
    gsm_channels: tuple[int, ...] = ()
    cdma_channels: tuple[int, ...] = ()
    scale: float = 1.0

    def channels_for(self, rat: RAT) -> tuple[int, ...]:
        """Channel holdings for one RAT."""
        if rat is RAT.LTE:
            return self.lte_channels
        if rat is RAT.UMTS:
            return self.umts_channels
        if rat is RAT.GSM:
            return self.gsm_channels
        return self.cdma_channels

    @property
    def is_us(self) -> bool:
        """Whether the carrier operates in the United States."""
        return self.country == "US"


_GSM_FAMILY = (RAT.LTE, RAT.UMTS, RAT.GSM)
_CDMA_FAMILY = (RAT.LTE, RAT.EVDO, RAT.CDMA1X)

#: All carriers in dataset D2, keyed by acronym.  The four US carriers
#: and the named Asian/European carriers follow Table 3; the remaining
#: "others" are modelled with small scale weights, matching the paper's
#: note that some countries contribute fewer than 100 cells.
CARRIERS: dict[str, Carrier] = {
    c.acronym: c
    for c in [
        # --- United States (4) ---
        Carrier(
            "A", "AT&T", "US", _GSM_FAMILY,
            lte_channels=(850, 1975, 2000, 2175, 2200, 2225, 5110, 5145,
                          5780, 5815, 9820, 675, 700, 725, 750, 775, 800,
                          825, 2425, 2430, 2535, 2538, 2600, 9720),
            umts_channels=(4385, 1637, 9800),
            gsm_channels=(128, 190, 512, 661),
            scale=7.0,
        ),
        Carrier(
            "T", "T-Mobile", "US", _GSM_FAMILY,
            lte_channels=(5035, 5110, 66486, 66661, 1950, 675, 2000, 9820),
            umts_channels=(1537, 1662, 9687),
            gsm_channels=(512, 579, 661),
            scale=5.5,
        ),
        Carrier(
            "V", "Verizon", "US", _CDMA_FAMILY,
            lte_channels=(5230, 5257, 2050, 1100, 66961, 66486, 800),
            cdma_channels=(384, 466, 891),
            scale=5.0,
        ),
        Carrier(
            "S", "Sprint", "US", _CDMA_FAMILY,
            lte_channels=(8665, 40072, 39874, 41176, 40978),
            cdma_channels=(476, 875, 1025),
            scale=3.5,
        ),
        # --- China (3) ---
        Carrier(
            "CM", "China Mobile", "CN", (RAT.LTE, RAT.GSM),
            lte_channels=(37900, 38098, 38400, 38950, 39148, 40936),
            gsm_channels=(1, 50, 94),
            scale=4.5,
        ),
        Carrier(
            "CU", "China Unicom", "CN", _GSM_FAMILY,
            lte_channels=(1650, 3590, 38544, 40340),
            umts_channels=(10562, 10587),
            gsm_channels=(96, 110),
            scale=2.0,
        ),
        Carrier(
            "CT", "China Telecom", "CN", _CDMA_FAMILY,
            lte_channels=(1825, 2452, 38400, 40540),
            cdma_channels=(201, 283),
            scale=1.8,
        ),
        # --- Korea (2) ---
        Carrier(
            "KT", "Korea Telecom", "KR", _GSM_FAMILY,
            lte_channels=(1350, 2500, 3743),
            umts_channels=(10737,),
            scale=0.9,
        ),
        Carrier(
            "SK", "SK Telecom", "KR", _GSM_FAMILY,
            lte_channels=(1550, 2600, 3610),
            umts_channels=(10713,),
            scale=1.0,
        ),
        # --- Singapore (3) ---
        Carrier(
            "ST", "Starhub", "SG", _GSM_FAMILY,
            lte_channels=(1300, 3668),
            umts_channels=(10688,),
            scale=0.7,
        ),
        Carrier(
            "SI", "SingTel", "SG", _GSM_FAMILY,
            lte_channels=(1400, 3725),
            umts_channels=(10663,),
            scale=0.8,
        ),
        Carrier(
            "MO", "MobileOne", "SG", _GSM_FAMILY,
            lte_channels=(1500, 3778),
            umts_channels=(10638,),
            scale=0.8,
        ),
        # --- Hong Kong (2) ---
        Carrier(
            "TH", "Three HK", "HK", _GSM_FAMILY,
            lte_channels=(1275, 3615),
            umts_channels=(10613,),
            scale=0.6,
        ),
        Carrier(
            "CH", "China Mobile Hong Kong", "HK", _GSM_FAMILY,
            lte_channels=(1825, 3660, 38400),
            umts_channels=(10588,),
            scale=0.9,
        ),
        # --- Taiwan (2) ---
        Carrier(
            "CW", "Chunghwa Telecom", "TW", _GSM_FAMILY,
            lte_channels=(1725, 3650, 6400),
            umts_channels=(10563,),
            scale=1.0,
        ),
        Carrier(
            "TC", "Taiwan Cellular", "TW", _GSM_FAMILY,
            lte_channels=(1775, 3690, 6300),
            umts_channels=(10564,),
            scale=0.8,
        ),
        # --- Norway (1) ---
        Carrier(
            "NC", "NetCom", "NO", _GSM_FAMILY,
            lte_channels=(1850, 6352),
            umts_channels=(10735,),
            scale=0.5,
        ),
        # --- Others (13), each contributing < 100 cells (paper Sec. 5) ---
        Carrier("OR", "Orange", "FR", _GSM_FAMILY, lte_channels=(6200, 1501), umts_channels=(10788,), scale=0.05),
        Carrier("DT", "Deutsche Telekom", "DE", _GSM_FAMILY, lte_channels=(6300, 1444), umts_channels=(10736,), scale=0.05),
        Carrier("VO", "Vodafone", "ES", _GSM_FAMILY, lte_channels=(6250, 1525), umts_channels=(10687,), scale=0.04),
        Carrier("MV", "MoviStar", "MX", _GSM_FAMILY, lte_channels=(2125, 9310), umts_channels=(4380,), scale=0.04),
        Carrier("SF", "SFR", "FR", _GSM_FAMILY, lte_channels=(6225, 1560), umts_channels=(10762,), scale=0.03),
        Carrier("O2", "O2", "DE", _GSM_FAMILY, lte_channels=(6350, 1300), umts_channels=(10712,), scale=0.03),
        Carrier("TI", "Telecom Italia", "IT", _GSM_FAMILY, lte_channels=(6275, 1350), umts_channels=(10638,), scale=0.03),
        Carrier("EE", "EE", "GB", _GSM_FAMILY, lte_channels=(1617, 6402), umts_channels=(10586,), scale=0.04),
        Carrier("RO", "Rogers", "CA", _GSM_FAMILY, lte_channels=(2300, 5180), umts_channels=(4400,), scale=0.04),
        Carrier("BE", "Bell", "CA", _GSM_FAMILY, lte_channels=(2325, 5205), umts_channels=(4405,), scale=0.03),
        Carrier("NT", "NTT Docomo", "JP", _GSM_FAMILY, lte_channels=(100, 1849, 6000), umts_channels=(10563,), scale=0.05),
        Carrier("SB", "SoftBank", "JP", _GSM_FAMILY, lte_channels=(1825, 3750, 8245), umts_channels=(10713,), scale=0.04),
        Carrier("VM", "Virgin Media", "GB", _GSM_FAMILY, lte_channels=(1300, 3775, 6325), umts_channels=(10663,), scale=0.05),
    ]
}

if len(CARRIERS) != 30:
    raise AssertionError(f"expected 30 carriers per the paper, got {len(CARRIERS)}")


def carrier_by_acronym(acronym: str) -> Carrier:
    """Look up a carrier by its Table 3 acronym.

    Raises:
        KeyError: If the acronym is unknown.
    """
    return CARRIERS[acronym]


def us_carriers() -> list[Carrier]:
    """The four top US carriers, in the paper's plotting order."""
    return [CARRIERS[a] for a in ("A", "T", "V", "S")]


def study_carriers() -> list[Carrier]:
    """The nine carriers used in the cross-carrier analyses (Fig. 15/17).

    The paper compares the four US carriers plus one representative
    carrier each from China, Korea, Singapore, Hong Kong and Taiwan.
    """
    return [CARRIERS[a] for a in ("A", "T", "S", "V", "CM", "SK", "MO", "CH", "CW")]
