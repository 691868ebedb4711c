"""Shared objects: registers, asset transfer, token standards."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.objects.asset_transfer": (
        "AssetTransfer",
        "AssetTransferType",
        "ATState",
        "DynamicOwnerAT",
        "DynamicOwnerATType",
    ),
    "repro.objects.base": ("SharedObject",),
    "repro.objects.erc20": ("ERC20Token", "ERC20TokenType", "TokenState"),
    "repro.objects.erc721": (
        "NO_APPROVAL",
        "ERC721Token",
        "ERC721TokenType",
        "NFTState",
    ),
    "repro.objects.erc777": ("ERC777State", "ERC777Token", "ERC777TokenType"),
    "repro.objects.erc1155": (
        "ERC1155Token",
        "ERC1155TokenType",
        "MultiTokenState",
    ),
    "repro.objects.footprint": (
        "EMPTY_FOOTPRINT",
        "SUPPLY",
        "OpFootprint",
        "static_pair_kind",
    ),
    "repro.objects.register": (
        "BOTTOM",
        "AtomicRegister",
        "RegisterType",
        "register_array",
    ),
    "repro.objects.restricted": (
        "RestrictedObject",
        "RestrictedType",
        "restrict_to_qk",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
